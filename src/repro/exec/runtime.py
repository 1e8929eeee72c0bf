"""The derivation runtime: plan, execute, and collect in one call.

:func:`stream_derivation` is the streaming face — it plans the workload and
yields :class:`~repro.exec.base.ShardResult` objects as shards finish, so a
caller (the lazy deriver, a progress bar, a service handler) can consume
completed blocks without waiting for the whole workload.
:func:`execute_derivation` is the collecting face — it drains the stream
into blocks in workload order, merges the Gibbs cost counters, and returns
per-shard timing diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from ..core.tuple_dag import SamplingStats
from ..probdb.blocks import TupleBlock
from ..probdb.invalidate import RunLayout
from .base import (
    DerivationCancelled,
    ExecReport,
    RetryPolicy,
    Shard,
    ShardExecutionError,
    ShardPlan,
    ShardResult,
    WorkerPoolError,
)
from .executors import ExecContext, Executor, get_executor
from .faults import FaultPlan, resolve_fault_plan
from .plan import (
    Workload,
    _as_workload,
    build_multi_shards,
    build_single_shards,
    plan_shards,
    resolve_base_seed,
)
from .work import ShardKnobs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.compiled import CompiledModel
    from ..core.engine import BatchInferenceEngine
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
    """Build the executor context for ``config``, failure knobs included."""
    return ExecContext(
        model=model,
        knobs=ShardKnobs.from_config(config),
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
    #: the parent's compiled lattices (:meth:`ExecContext.compiled_model`)
    compiled: "CompiledModel"
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
        plan = _plan(_as_workload(tuples), model, config, rng, chosen, context)
    yield from chosen.run(plan, context)


def _plan(
    workload: Workload, model, config, rng, chosen: Executor, context: ExecContext
) -> ShardPlan:
    """Plan the workload on the context's one compiled model.

    Serial execution warms the context's engine up front so the planner's
    signature computation and the kernels share one compiled model; other
    executors build it once on the context, where the process executor's
    rebuild check finds it again.  Multi tuples are cut into seeded
    segments (:data:`~repro.exec.plan.MULTI_TUPLES_PER_SHARD`) that never
    depend on the worker count, and consecutive segments fuse into at most
    one shard per worker — so results stay identical across executors and
    pool sizes.
    """
    if chosen.name == "serial":
        context.warm_engine()
    return plan_shards(
        workload,
        model,
        workers=chosen.effective_workers,
        seed=config.seed,
        rng=rng,
        compiled=context.compiled_model(),
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
) -> ExecOutcome:
    """Derive blocks for ``tuples``, collecting the stream in input order.

    ``tuples`` is a :class:`~repro.exec.plan.Workload` or a tuple list.
    Each distinct row runs once; the collector returns one block per
    workload row, and copies of a row share its block object.  Blocks of a
    tuple list are rooted at the list's own tuples.

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
    plan = _plan(workload, model, config, rng, chosen, context)
    if on_plan is not None:
        on_plan(plan)
    report = ExecReport(
        executor=chosen.name,
        workers=chosen.effective_workers,
        num_shards=len(plan),
        num_tuples=len(workload),
    )
    return _run_plan(
        chosen, context, plan, workload, {}, [], report, on_shard, should_stop
    )


def _run_plan(
    chosen: Executor,
    context: ExecContext,
    plan: ShardPlan,
    workload: Workload,
    carried: "dict[int, TupleBlock]",
    carried_segments: "list[tuple[str, np.ndarray]]",
    report: ExecReport,
    on_shard: Callable[[ShardResult], None] | None,
    should_stop: Callable[[], bool] | None,
) -> ExecOutcome:
    """Drain a plan's shard stream into one block per distinct row, then
    expand them to the workload's rows, filling ``report``.

    Shared collector of the full and delta paths; ``carried`` blocks fill
    their distinct rows up front, only planned shards are awaited.
    ``carried_segments`` are the carried multi segments' keys and rows,
    which join the plan's in the outcome's :class:`RunLayout`.
    """
    groups_by_key = {shard.key: shard.groups for shard in plan.shards}
    distinct: "list[TupleBlock | None]" = [None] * len(workload.tuples)
    for idx, block in carried.items():
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
        compiled=context.compiled_model(),
        layout=RunLayout.of(
            workload.codes, workload.missing, distinct,
            carried_segments + _planned_segments(plan),
        ),
    )


def _planned_segments(plan: ShardPlan) -> "list[tuple[str, np.ndarray]]":
    """Each planned multi segment's key and distinct rows, in run order: a
    multi shard's rows are its segments' rows, concatenated."""
    segments = []
    for shard in plan.shards:
        if shard.kind == "multi":
            cuts = np.cumsum([segment.distinct for segment in shard.segments])
            rows = np.split(np.asarray(shard.indices, dtype=np.intp), cuts[:-1])
            segments.extend(
                (segment.key, r) for segment, r in zip(shard.segments, rows)
            )
    return segments


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
    rng: np.random.Generator | int | None = None,
    batch_engine: "BatchInferenceEngine | None" = None,
    executor: "Executor | str | None" = None,
    on_shard: Callable[[ShardResult], None] | None = None,
    on_plan: Callable[[ShardPlan], None] | None = None,
    should_stop: Callable[[], bool] | None = None,
    faults: "FaultPlan | Any" = None,
) -> ExecOutcome:
    """Derive blocks for ``tuples``, reusing a previous run's clean blocks.

    The new workload is laid out exactly as :func:`execute_derivation`
    would plan it; every shard whose content already exists in ``carry``
    is served verbatim (recorded as a carried shard in the report), and
    only dirty work executes.  Dirty multi segments are seeded with
    ``carry.base_seed`` under the keys a from-scratch plan would assign
    (then fused into shards like a from-scratch plan's),
    so the assembled database is bit-identical to a from-scratch derive
    of the updated table with that base seed — for every executor.  When
    the previous run had no multi-missing work, the base seed resolves
    fresh from ``rng``/``config.seed`` as usual.
    """
    chosen = get_executor(
        config.executor if executor is None else executor, config.workers
    )
    context = _context(model, config, batch_engine, faults)
    workers = chosen.effective_workers
    workload = _as_workload(tuples)
    split = carry.split(workload)

    compiled = None
    if split.dirty_single or split.carried_single:
        if chosen.name == "serial":
            context.warm_engine()
        compiled = context.compiled_model()

    shards: list[Shard] = build_single_shards(
        workload, split.dirty_single, compiled, workers
    )
    base_seed: int | None = None
    if split.dirty_multi or split.carried_multi:
        base_seed = (
            carry.base_seed
            if carry.base_seed is not None
            else resolve_base_seed(rng, config.seed)
        )
    if split.dirty_multi:
        # Dirty segments keep their from-scratch keys and seeds; only their
        # grouping into fused shards follows this run's worker count.
        shards.extend(
            build_multi_shards(workload, split.dirty_multi, base_seed, workers)
        )

    # Account carried work: carried singles are packed exactly like dirty
    # ones (results don't depend on packing), carried multi work is
    # counted per segment, the unit it was carried by.
    carried_rows = [
        (shard.key, shard.kind, len(shard), shard.groups)
        for shard in build_single_shards(
            workload, split.carried_single, compiled, workers
        )
    ] + [
        (segment.key, "multi", segment.size, segment.distinct)
        for segment, _ in split.carried_multi
    ]

    plan = ShardPlan(
        shards=tuple(shards),
        num_tuples=split.num_dirty_tuples,
        base_seed=base_seed,
        carried_over=len(carried_rows),
        carried_tuples=split.num_carried_tuples,
    )
    if on_plan is not None:
        on_plan(plan)

    report = ExecReport(
        executor=chosen.name,
        workers=workers,
        num_shards=len(plan),
        num_tuples=len(workload),
    )
    for row in carried_rows:
        report.add_carried(*row)
    carried_segments = [(segment.key, rows) for segment, rows in split.carried_multi]
    return _run_plan(
        chosen, context, plan, workload, split.carried, carried_segments,
        report, on_shard, should_stop,
    )
