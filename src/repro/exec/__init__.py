"""Sharded parallel derivation: planner, pluggable executors, collector.

The derivation step (Algorithm 2 over single-missing blocks, Algorithm 3
over multi-missing components) is embarrassingly parallel given the learned
MRSL.  This package turns it into a plan/execute/collect pipeline:

* :mod:`.plan`      — partition a workload into shards keyed by evidence
  signature (single-missing) and into seeded segments of subsumption
  components, fused into shards (multi-missing); with a carry store,
  only the rows it does not carry (a delta re-derive);
* :mod:`.executors` — run shards serially or on worker processes that
  inherit the parent's state (fork) or rebuild it from the persisted
  model JSON;
* :mod:`.runtime`   — stream completed blocks back as shards finish, with
  per-shard timing diagnostics.

Determinism guarantee: single shards are RNG-free and every multi segment
carries a seed derived from the config seed plus its stable content key —
kept inside whatever shard the segment is fused into — so every executor
produces bit-identical results for any worker count.

Only :mod:`.base` is imported by :mod:`repro.api.config` (for the
``executor``/``workers`` knobs); everything here is safe to import without
touching the api layer.
"""

from .base import (
    DEFAULT_EXECUTOR,
    DEFAULT_FAILURE_POLICY,
    DEFAULT_WORKERS,
    EXECUTORS,
    FAILURE_POLICIES,
    DerivationCancelled,
    ExecReport,
    RetryPolicy,
    Segment,
    Shard,
    ShardExecutionError,
    ShardFailure,
    ShardPlan,
    ShardResult,
    ShardTiming,
    WorkerPoolError,
    validate_executor,
    validate_failure_policy,
    validate_workers,
)
from .executors import (
    ExecContext,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from .faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    ShardFault,
    apply_fault,
    bind_faults,
    resolve_fault_plan,
)
from .plan import (
    Workload,
    build_multi_shards,
    multi_shard_layout,
    plan_shards,
    resolve_base_seed,
    shard_seed,
)
from .runtime import (
    ExecOutcome,
    execute_delta,
    execute_derivation,
    stream_derivation,
)
from .work import ShardKnobs, multi_shard_blocks, run_shard, single_shard_blocks

__all__ = [
    "EXECUTORS",
    "DEFAULT_EXECUTOR",
    "DEFAULT_WORKERS",
    "FAILURE_POLICIES",
    "DEFAULT_FAILURE_POLICY",
    "validate_executor",
    "validate_failure_policy",
    "validate_workers",
    "DerivationCancelled",
    "RetryPolicy",
    "ShardFailure",
    "ShardExecutionError",
    "WorkerPoolError",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "FaultPlan",
    "ShardFault",
    "apply_fault",
    "bind_faults",
    "resolve_fault_plan",
    "Segment",
    "Shard",
    "ShardPlan",
    "ShardResult",
    "ShardTiming",
    "ExecReport",
    "ExecContext",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "Workload",
    "plan_shards",
    "build_multi_shards",
    "multi_shard_layout",
    "resolve_base_seed",
    "shard_seed",
    "ShardKnobs",
    "single_shard_blocks",
    "multi_shard_blocks",
    "run_shard",
    "ExecOutcome",
    "stream_derivation",
    "execute_derivation",
    "execute_delta",
]
