"""The derivation runtime: plan, execute, and collect in one call.

:func:`stream_derivation` is the streaming face — it plans the workload and
yields :class:`~repro.exec.base.ShardResult` objects as shards finish, so a
caller (the lazy deriver, a progress bar, a service handler) can consume
completed blocks without waiting for the whole workload.
:func:`execute_derivation` is the collecting face — it drains the stream
into blocks in workload order, merges the Gibbs cost counters, and returns
per-shard timing diagnostics.  Given a previous run's
:class:`~repro.probdb.invalidate.CarryStore` it is also the delta
re-derive: the one planner (:func:`~repro.exec.plan.plan_shards`) plans
only the rows the store does not carry, and the collector fills the
carried rows from the store.  :func:`execute_delta` is that call under its
own name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from ..core.engine import BatchInferenceEngine
from ..core.tuple_dag import SamplingStats
from ..probdb.blocks import TupleBlock
from ..probdb.invalidate import RunLayout
from .base import (
    DerivationCancelled,
    ExecReport,
    RetryPolicy,
    ShardExecutionError,
    ShardPlan,
    ShardResult,
    WorkerPoolError,
)
from .executors import ExecContext, Executor, get_executor
from .faults import FaultPlan, resolve_fault_plan
from .plan import Workload, _as_workload, plan_shards
from .work import ShardKnobs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mrsl import MRSLModel
    from ..probdb.invalidate import CarryStore
    from ..relational.tuples import RelTuple

__all__ = [
    "ExecOutcome",
    "stream_derivation",
    "execute_derivation",
    "execute_delta",
]


def _context(
    model: "MRSLModel",
    config: Any,
    batch_engine: "BatchInferenceEngine | None",
    faults: "FaultPlan | Any" = None,
) -> ExecContext:
    """Build the executor context for ``config``, failure knobs included,
    on ``batch_engine`` or a new engine."""
    knobs = ShardKnobs.from_config(config)
    if batch_engine is None:
        batch_engine = BatchInferenceEngine(model, knobs.v_choice, knobs.v_scheme)
    return ExecContext(
        model=model,
        knobs=knobs,
        batch_engine=batch_engine,
        retry=RetryPolicy.from_config(config),
        failure_policy=config.failure_policy,
        faults=resolve_fault_plan(faults),
    )


@dataclass
class ExecOutcome:
    """Everything one executed derivation workload produced."""

    #: one block per workload row, in workload order; copies of a row
    #: share its block
    blocks: "list[TupleBlock]"
    #: merged Gibbs cost counters across all multi shards
    stats: SamplingStats
    #: per-shard timing / placement diagnostics
    report: ExecReport
    plan: ShardPlan
    #: the run's engine, with its compiled lattices and the CPDs of the
    #: shards the parent ran (its memos stay empty when pool workers ran
    #: every shard)
    engine: BatchInferenceEngine
    #: what ran, by distinct row: a later delta re-derive's carry store
    layout: RunLayout


def stream_derivation(
    tuples: "Workload | Sequence[RelTuple]",
    model: "MRSLModel",
    config: Any,
    rng: np.random.Generator | int | None = None,
    batch_engine: "BatchInferenceEngine | None" = None,
    executor: "Executor | str | None" = None,
    plan: ShardPlan | None = None,
    faults: "FaultPlan | Any" = None,
) -> Iterator[ShardResult]:
    """Plan ``tuples`` and yield shard results as they complete.

    ``tuples`` is a :class:`~repro.exec.plan.Workload` or a tuple list.  A
    result holds one block per distinct row of its shard; its ``indices``
    are those rows' distinct numbers, which for a duplicate-free tuple list
    are the list positions.  ``config`` is any
    :class:`~repro.api.config.DeriveConfig`-shaped object (the knobs are
    read as attributes, so this module never imports the api layer).  ``executor`` overrides ``config.executor``/``config.workers``
    when given; ``plan`` skips planning when the caller already has one.
    ``faults`` injects a :class:`~repro.exec.faults.FaultPlan` (tests and
    chaos runs only).
    """
    chosen = get_executor(
        config.executor if executor is None else executor, config.workers
    )
    context = _context(model, config, batch_engine, faults)
    if plan is None:
        plan = _plan(_as_workload(tuples), model, config, rng, chosen)
    yield from chosen.run(plan, context)


def _plan(
    workload: Workload,
    model,
    config,
    rng,
    chosen: Executor,
    carry: "CarryStore | None" = None,
) -> ShardPlan:
    """Plan the workload on the model's compiled lattices, the ones the
    kernels and the process handshake read.  Multi tuples are
    cut into seeded segments (:data:`~repro.exec.plan.MULTI_TUPLES_PER_SHARD`)
    that never depend on the worker count, and consecutive segments fuse into at most
    one shard per worker — so results stay identical across executors and
    pool sizes.  ``carry`` plans only the rows it does not carry.
    """
    return plan_shards(
        workload,
        model,
        workers=chosen.effective_workers,
        seed=config.seed,
        rng=rng,
        carry=carry,
    )


def execute_derivation(
    tuples: "Workload | Sequence[RelTuple]",
    model: "MRSLModel",
    config: Any,
    rng: np.random.Generator | int | None = None,
    batch_engine: "BatchInferenceEngine | None" = None,
    executor: "Executor | str | None" = None,
    on_shard: Callable[[ShardResult], None] | None = None,
    on_plan: Callable[[ShardPlan], None] | None = None,
    should_stop: Callable[[], bool] | None = None,
    faults: "FaultPlan | Any" = None,
    carry: "CarryStore | None" = None,
) -> ExecOutcome:
    """Derive blocks for ``tuples``, collecting the stream in input order.

    ``tuples`` is a :class:`~repro.exec.plan.Workload` or a tuple list.
    Each distinct row runs once; the collector returns one block per
    workload row, and copies of a row share its block object.  Blocks of a
    tuple list are rooted at the list's own tuples.

    ``carry`` reuses a previous run's clean blocks (delta mode, see
    :func:`~repro.exec.plan.plan_shards`): carried blocks fill their rows
    up front and appear in the report as carried shards, and only the
    planned, dirty shards execute.  Dirty segments keep the keys and seeds
    a plan without a store gives them, under ``carry.base_seed``, so the
    result is bit-identical to a derive from scratch under that base seed,
    for every executor.

    ``on_plan`` is invoked once with the :class:`ShardPlan` before any shard
    runs, and ``on_shard`` with every :class:`ShardResult` as it lands — the
    progress hooks for long derivations.  ``should_stop`` is polled at shard
    boundaries (before the first shard and after each completed one); when
    it returns true the collector closes the stream — cancelling shards not
    yet started — and raises :class:`~repro.exec.base.DerivationCancelled`
    carrying the partial report.  Shards already running on pool workers
    finish, but their results are discarded; no blocks escape a cancelled
    run.

    Failure semantics ride on the config: each shard gets
    ``config.shard_retries`` retries with deterministic exponential backoff
    and an optional ``config.shard_deadline``; failed attempts, pool
    restarts, and executor downgrades are recorded on the returned
    :class:`~repro.exec.base.ExecReport`.  An exhausted shard or a
    repeatedly dying pool raises :class:`~repro.exec.base.ShardExecutionError`
    / :class:`~repro.exec.base.WorkerPoolError` with the partial report
    attached as ``exc.report`` (``failure_policy="strict"``), or degrades
    process→serial and completes (``"degrade"``).
    """
    chosen = get_executor(
        config.executor if executor is None else executor, config.workers
    )
    context = _context(model, config, batch_engine, faults)
    workload = _as_workload(tuples)
    plan = _plan(workload, model, config, rng, chosen, carry)
    if on_plan is not None:
        on_plan(plan)
    report = ExecReport(
        executor=chosen.name,
        workers=chosen.effective_workers,
        num_shards=len(plan),
        num_tuples=len(workload),
    )
    for shard in plan.carried:
        report.add_carried(shard)

    groups_by_key = {shard.key: shard.groups for shard in plan.shards}
    distinct: "list[TupleBlock | None]" = [None] * len(workload.tuples)
    for idx, block in plan.carried_blocks.items():
        distinct[idx] = block
    stats = SamplingStats()
    start = time.perf_counter()

    def _cancelled_at(done: int) -> DerivationCancelled:
        report.elapsed = time.perf_counter() - start
        return DerivationCancelled(
            f"derivation cancelled after {done} of {len(plan)} shards",
            report=report,
        )

    if should_stop is not None and should_stop():
        raise _cancelled_at(0)
    stream = chosen.run(plan, context)
    executed = 0
    try:
        for result in stream:
            for idx, block in zip(result.indices, result.blocks):
                distinct[idx] = block
            if result.stats is not None:
                stats.merge(result.stats)
            report.add(result, groups_by_key.get(result.key, 1))
            executed += 1
            if on_shard is not None:
                on_shard(result)
            if should_stop is not None and should_stop():
                raise _cancelled_at(executed)
    except (ShardExecutionError, WorkerPoolError) as exc:
        report.elapsed = time.perf_counter() - start
        if exc.report is None:
            exc.report = report
        raise
    finally:
        # Closing the stream cancels futures the pools have not started.
        close = getattr(stream, "close", None)
        if close is not None:
            close()
        # Failure accounting outlives the stream — copy it even when the
        # run is about to raise, so exc.report carries the full story.
        report.failures = list(context.failures)
        report.degraded = list(context.degradations)
        report.pool_restarts = context.pool_restarts
    report.elapsed = time.perf_counter() - start
    unfilled = distinct.count(None)
    if unfilled:  # pragma: no cover - executors yield every planned shard
        raise RuntimeError(f"shard execution left {unfilled} tuples unfilled")
    return ExecOutcome(
        blocks=_expand(workload, distinct),
        stats=stats,
        report=report,
        plan=plan,
        engine=context.batch_engine,
        layout=RunLayout.of(
            workload.codes, workload.missing, distinct,
            [(segment.key, rows) for segment, rows in plan.layout],
        ),
    )


def _expand(
    workload: Workload, distinct: "list[TupleBlock]"
) -> "list[TupleBlock]":
    """One block per workload row: copies of a row share its block, and a
    tuple-list workload's copies are re-rooted at the list's tuples."""
    blocks = [distinct[i] for i in workload.rows.tolist()]
    if workload.bases is not None:
        blocks = [
            block if block.base is t else TupleBlock._trusted(t, block.distribution)
            for block, t in zip(blocks, workload.bases)
        ]
    return blocks


def execute_delta(
    tuples: "Workload | Sequence[RelTuple]",
    model: "MRSLModel",
    config: Any,
    carry: "CarryStore",
    **kwargs: Any,
) -> ExecOutcome:
    """:func:`execute_derivation` reusing ``carry``'s clean blocks; takes
    the same keyword arguments."""
    return execute_derivation(tuples, model, config, carry=carry, **kwargs)
