"""Shared vocabulary of the execution subsystem: shards, plans, results.

The derivation step is embarrassingly parallel — each incomplete tuple's
block depends only on the learned model and the tuple itself (plus, for
multi-missing tuples, the other tuples in its subsumption component, which
share Gibbs samples).  The planner (:mod:`repro.exec.plan`) partitions a
workload into :class:`Shard` units along exactly those dependency lines;
executors (:mod:`repro.exec.executors`) run shards serially or on worker
processes; the collector (:mod:`repro.exec.runtime`) streams
:class:`ShardResult` objects back as shards finish.  Shards and results
hold each distinct row of the workload once; their row counts count every
copy.

This module holds only the data types, name validation and the worker
count (:func:`effective_workers`) so that :mod:`repro.api.config` can
import it without pulling in the derive pipeline (which itself imports
the config module).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.tuple_dag import SamplingStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..probdb.blocks import TupleBlock
    from ..relational.tuples import RelTuple

__all__ = [
    "EXECUTORS",
    "DEFAULT_EXECUTOR",
    "DEFAULT_WORKERS",
    "FAILURE_POLICIES",
    "DEFAULT_FAILURE_POLICY",
    "validate_executor",
    "validate_workers",
    "validate_failure_policy",
    "host_cpus",
    "effective_workers",
    "DerivationCancelled",
    "ShardExecutionError",
    "WorkerPoolError",
    "RetryPolicy",
    "Segment",
    "Shard",
    "ShardPlan",
    "ShardResult",
    "ShardFailure",
    "ShardTiming",
    "ExecReport",
    "split_by_segments",
]

#: Recognized executor names.
EXECUTORS = ("serial", "process")

#: The executor used when callers do not choose one.
DEFAULT_EXECUTOR = "serial"

#: The worker count used when callers do not choose one.
DEFAULT_WORKERS = 1

#: Recognized failure policies: ``"strict"`` raises on unrecoverable
#: infrastructure failure (with the partial report attached), ``"degrade"``
#: falls back process->serial and keeps going.
FAILURE_POLICIES = ("strict", "degrade")

#: The failure policy used when callers do not choose one.
DEFAULT_FAILURE_POLICY = "strict"


def validate_executor(executor: str) -> str:
    """Normalize and validate an executor name."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    return executor


def validate_workers(workers: int) -> int:
    """Validate a worker count."""
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return workers


def host_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API on this OS
        return os.cpu_count() or 1


def effective_workers(executor: str, workers: int) -> int:
    """The workers ``executor`` runs, and plans for, under a ``workers``
    knob: the serial executor always runs one, a process pool at most one
    per host CPU.  Executors and progress trackers both size from this."""
    return 1 if executor == "serial" else min(workers, host_cpus())


def validate_failure_policy(policy: str) -> str:
    """Normalize and validate a failure policy name."""
    if policy not in FAILURE_POLICIES:
        raise ValueError(
            f"failure_policy must be one of {FAILURE_POLICIES}, "
            f"got {policy!r}"
        )
    return policy


class DerivationCancelled(RuntimeError):
    """A derivation stopped cooperatively at a shard boundary.

    Raised by the collector when its ``should_stop`` hook fires between
    shards.  ``report`` carries the partial :class:`ExecReport` — the shards
    that did complete, with their timings — so callers (the job manager, a
    progress bar) can show how far the run got.  No partially-assembled
    database ever escapes: the exception propagates before block assembly.
    """

    def __init__(self, message: str, report: "ExecReport | None" = None):
        super().__init__(message)
        self.report = report


class ShardExecutionError(RuntimeError):
    """A shard kept failing after its retry budget was spent.

    ``failure`` is the :class:`ShardFailure` row of the final attempt;
    ``report`` is attached by the collector before the exception escapes,
    so callers see every shard that *did* complete (and every recorded
    failure) alongside the one that did not.
    """

    def __init__(
        self,
        message: str,
        failure: "ShardFailure | None" = None,
        report: "ExecReport | None" = None,
    ):
        super().__init__(message)
        self.failure = failure
        self.report = report


class WorkerPoolError(RuntimeError):
    """A worker pool died too many times and the policy forbids fallback.

    Raised under ``failure_policy="strict"`` when the process pool keeps
    breaking; ``report`` is attached by the
    collector exactly as for :class:`ShardExecutionError`.
    """

    def __init__(self, message: str, report: "ExecReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry budget with a jitterless deterministic backoff.

    ``retries`` is the number of *re*-tries after the first attempt (so a
    shard runs at most ``retries + 1`` times).  The backoff before retry
    attempt ``n`` is ``min(backoff_cap, backoff_base * 2**(n-1))`` seconds
    — exponential, no jitter, so two runs of the same failing workload wait
    exactly the same schedule.  ``deadline`` bounds one attempt's wall
    clock; it is *enforced* only by the process executor (which can kill a
    hung worker and requeue) — serial attempts cannot be interrupted, so
    for them it is diagnostic only.

    Retried shards are bit-identical to first-try shards: every attempt
    re-runs the same content-keyed seed through the same kernel.
    """

    retries: int = 1
    deadline: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive or None, got {self.deadline}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before the retry that follows ``attempt``."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    @classmethod
    def from_config(cls, cfg: object) -> "RetryPolicy":
        """The retry knobs of a :class:`~repro.api.config.DeriveConfig`."""
        return cls(retries=cfg.shard_retries, deadline=cfg.shard_deadline)


@dataclass(frozen=True)
class Segment:
    """One seed unit of a multi shard: the tuples one Gibbs generator serves.

    The multi-missing layout cuts a workload into segments of at most
    :data:`~repro.exec.plan.MULTI_TUPLES_PER_SHARD` distinct tuples; each
    has a content ``key`` and a ``seed`` derived from the base seed and that
    key.  Segments are the unit of seeding, carry-over, journaling and delta
    invalidation, and their layout never depends on the worker count.  A
    multi shard runs one or more consecutive segments as one fused
    ensemble: the segment covers the next ``distinct`` tuples of its
    shard's ``indices``/``tuples``, which ``size`` workload rows repeat.
    """

    key: str
    #: workload rows the segment covers, duplicates included
    size: int
    #: distinct tuples the segment runs
    distinct: int
    #: the segment's RNG seed; None in a bare layout, set when a plan
    #: seeds the segment for execution
    seed: int | None = None


def split_by_segments(items: Sequence, segments: "Sequence[Segment]") -> list:
    """Cut a shard's per-tuple sequence (its distinct tuples, or their
    blocks) into one chunk per segment."""
    chunks, start = [], 0
    for segment in segments:
        chunks.append(items[start : start + segment.distinct])
        start += segment.distinct
    return chunks


@dataclass(frozen=True)
class Shard:
    """One independent unit of derivation work.

    A shard runs each of its distinct tuples once.  ``indices`` are their
    distinct-row numbers in the planned workload
    (:class:`~repro.exec.plan.Workload`) and ``tuples[i]`` is the tuple
    numbered ``indices[i]``, so results can be re-assembled in input order
    no matter when shards finish.  ``codes`` holds the tuples' code rows,
    the matrix the kernels and the process wire read.  ``rows`` counts the
    workload rows the shard covers, duplicates included; ``len(shard)`` is
    that count.  ``kind`` is ``"single"`` (Algorithm 2, RNG-free, grouped
    by evidence signature) or ``"multi"`` (Algorithm 3 Gibbs over the
    consecutive seeded ``segments`` its tuples are cut into).
    """

    key: str
    kind: str  # "single" | "multi"
    indices: tuple[int, ...]
    tuples: "tuple[RelTuple, ...]"
    #: distinct evidence-signature groups (single) / distinct tuples (multi)
    groups: int = 1
    #: the seeded segments a multi shard runs, in tuple order (empty for
    #: single shards)
    segments: tuple[Segment, ...] = ()
    #: workload rows covered; defaults to one per tuple
    rows: int | None = None
    #: ``(len(tuples), width)`` int32 code rows of ``tuples``; stacked from
    #: them when not given
    codes: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rows is None:
            object.__setattr__(self, "rows", len(self.indices))
        if self.codes is None:
            codes = (
                np.stack([t.codes for t in self.tuples])
                if self.tuples
                else np.empty((0, 0), dtype=np.int32)
            )
            codes.setflags(write=False)
            object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return self.rows


@dataclass(frozen=True)
class ShardPlan:
    """The planner's output: a deterministic partition of a workload.

    Multi-missing work is cut into seeded :class:`Segment` units whose
    layout, keys and seeds never depend on the worker count; that is what
    makes derivation results identical for any executor and any number of
    workers.  How consecutive segments group into multi shards, and how
    single shards pack, *may* track the worker count: segments keep their
    own seeds inside a fused shard, and single shards are RNG-free, so
    neither grouping changes a result.  A plan against a carry store lists
    the work it does not run in ``carried``; ``num_tuples`` counts only
    the rows ``shards`` cover.
    """

    shards: tuple[Shard, ...]
    num_tuples: int
    #: the resolved seed multi-shard seeds derive from (None if no multis)
    base_seed: int | None = None
    #: carried work: single shards, and one shard per multi segment
    carried: tuple[Shard, ...] = ()
    #: the carried rows' blocks, by distinct-row number
    carried_blocks: "Mapping[int, TupleBlock]" = field(
        default_factory=dict, repr=False, compare=False
    )
    #: every multi segment, carried or planned, with its distinct rows, in
    #: layout order
    layout: "tuple[tuple[Segment, np.ndarray], ...]" = field(
        default=(), repr=False, compare=False
    )

    @property
    def carried_over(self) -> int:
        """Carried shards and segments (skipped work)."""
        return len(self.carried)

    @property
    def carried_tuples(self) -> int:
        """Workload rows the carried work covers."""
        return sum(len(shard) for shard in self.carried)

    @property
    def single_shards(self) -> tuple[Shard, ...]:
        return tuple(s for s in self.shards if s.kind == "single")

    @property
    def multi_shards(self) -> tuple[Shard, ...]:
        return tuple(s for s in self.shards if s.kind == "multi")

    def __len__(self) -> int:
        return len(self.shards)


@dataclass(frozen=True)
class ShardResult:
    """One completed shard: one block per distinct tuple, aligned with the
    shard's ``indices``; ``rows`` (and ``len``) count its workload rows."""

    key: str
    kind: str
    indices: tuple[int, ...]
    blocks: "tuple[TupleBlock, ...]"
    #: Gibbs cost counters (multi shards; None for single shards)
    stats: SamplingStats | None = None
    #: wall-clock seconds spent computing this shard (final attempt only)
    elapsed: float = 0.0
    #: label of the worker that ran the shard (``"main"`` / process pid)
    worker: str = "main"
    #: how many attempts this shard took (1 = succeeded first try)
    attempts: int = 1
    #: the shard's segments (multi shards), aligned with ``blocks``
    segments: tuple[Segment, ...] = ()
    #: workload rows covered; defaults to one per block
    rows: int | None = None

    def __post_init__(self) -> None:
        if self.rows is None:
            object.__setattr__(self, "rows", len(self.indices))

    def __len__(self) -> int:
        return self.rows

    def records(self) -> "list[tuple[str, str, tuple[TupleBlock, ...]]]":
        """``(key, kind, blocks)`` rows to journal, one block per distinct
        tuple: one row per segment of a multi shard, so a resumed run
        carries each by its segment key."""
        if not self.segments:
            return [(self.key, self.kind, self.blocks)]
        return [
            (segment.key, self.kind, blocks)
            for segment, blocks in zip(
                self.segments, split_by_segments(self.blocks, self.segments)
            )
        ]

    def summary_dict(self) -> dict:
        """Timing/placement summary for wire payloads (blocks excluded)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "tuples": len(self),
            "elapsed": self.elapsed,
            "worker": self.worker,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as recorded in the :class:`ExecReport`.

    Ioannidis & Simitsis's "talk back" in miniature: which shard failed, on
    which attempt, what the error was, how long the attempt ran, and how
    long the runtime backed off before retrying (0.0 when the budget was
    spent and no retry followed).  ``fatal`` marks the attempt that
    exhausted the retry budget.
    """

    key: str
    kind: str
    attempt: int
    error: str
    elapsed: float
    backoff: float = 0.0
    fatal: bool = False

    def to_dict(self) -> dict:
        """Plain JSON-able mapping (the wire form of failure rows)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "attempt": self.attempt,
            "error": self.error,
            "elapsed": self.elapsed,
            "backoff": self.backoff,
            "fatal": self.fatal,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardFailure":
        return cls(**data)


@dataclass(frozen=True)
class ShardTiming:
    """Per-shard diagnostics row kept by the collector."""

    key: str
    kind: str
    tuples: int
    groups: int
    elapsed: float
    worker: str
    #: True when the delta path reused this shard's blocks instead of
    #: executing it (elapsed is 0.0 and worker is "carry")
    carried: bool = False
    #: attempts the shard took (1 = first try; carried shards report 1)
    attempts: int = 1

    def to_dict(self) -> dict:
        """Plain JSON-able mapping (the wire form of job shard events)."""
        return {
            "key": self.key,
            "kind": self.kind,
            "tuples": self.tuples,
            "groups": self.groups,
            "elapsed": self.elapsed,
            "worker": self.worker,
            "carried": self.carried,
            "attempts": self.attempts,
        }


@dataclass
class ExecReport:
    """Collector diagnostics for one derivation run."""

    executor: str
    workers: int
    num_shards: int = 0
    num_tuples: int = 0
    elapsed: float = 0.0
    timings: list[ShardTiming] = field(default_factory=list)
    #: shards served verbatim from a previous derivation (delta mode);
    #: ``num_shards`` counts only the shards actually executed
    carried_over: int = 0
    #: tuples covered by the carried shards
    carried_tuples: int = 0
    #: every failed attempt observed during the run (retried or fatal)
    failures: list[ShardFailure] = field(default_factory=list)
    #: executor downgrades that occurred (e.g. ``"process->serial"``)
    degraded: list[str] = field(default_factory=list)
    #: how many times a dead worker pool was rebuilt mid-run
    pool_restarts: int = 0

    def add(self, result: ShardResult, groups: int) -> None:
        self.timings.append(
            ShardTiming(
                key=result.key,
                kind=result.kind,
                tuples=len(result),
                groups=groups,
                elapsed=result.elapsed,
                worker=result.worker,
                attempts=result.attempts,
            )
        )

    def add_carried(self, shard: Shard) -> None:
        """Record a shard the plan carried (blocks reused verbatim)."""
        self.timings.append(
            ShardTiming(
                key=shard.key,
                kind=shard.kind,
                tuples=len(shard),
                groups=shard.groups,
                elapsed=0.0,
                worker="carry",
                carried=True,
            )
        )
        self.carried_over += 1
        self.carried_tuples += len(shard)

    def slowest(self, k: int = 5) -> list[ShardTiming]:
        """The ``k`` slowest shards, slowest first (for progress reporting)."""
        return sorted(self.timings, key=lambda t: -t.elapsed)[:k]

    def to_dict(self) -> dict:
        """Plain JSON-able mapping (the wire form of job progress reports)."""
        return {
            "executor": self.executor,
            "workers": self.workers,
            "num_shards": self.num_shards,
            "num_tuples": self.num_tuples,
            "elapsed": self.elapsed,
            "carried_over": self.carried_over,
            "carried_tuples": self.carried_tuples,
            "timings": [t.to_dict() for t in self.timings],
            "failures": [f.to_dict() for f in self.failures],
            "degraded": list(self.degraded),
            "pool_restarts": self.pool_restarts,
        }

    def summary(self) -> str:
        busy = sum(t.elapsed for t in self.timings)
        carried = (
            f", {self.carried_over} shards ({self.carried_tuples} tuples) carried over"
            if self.carried_over
            else ""
        )
        faults = (
            f", {len(self.failures)} failed attempts" if self.failures else ""
        )
        degraded = (
            f", degraded {' then '.join(self.degraded)}" if self.degraded else ""
        )
        restarts = (
            f", {self.pool_restarts} pool restarts" if self.pool_restarts else ""
        )
        return (
            f"{self.num_shards} shards over {self.num_tuples} tuples via "
            f"{self.executor}(workers={self.workers}): "
            f"{self.elapsed:.3f}s wall, {busy:.3f}s shard time"
            f"{carried}{faults}{restarts}{degraded}"
        )

    def __repr__(self) -> str:
        return f"ExecReport({self.summary()})"
