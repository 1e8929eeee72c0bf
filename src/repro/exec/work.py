"""Shard kernels: the per-shard computation, runnable in any process.

Two kernels, one per shard kind:

* :func:`single_shard_blocks` — Algorithm 2 over a batch of single-missing
  tuples, run by the serial path and by process workers alike (and
  therefore bit-identical across them).  The compiled path
  works on the shard's code matrix: per missing attribute, the
  distinct signatures' CPDs come back as one matrix, are validated and
  normalized as one matrix, and become one shared read-only
  :class:`~repro.probdb.distribution.Distribution` per signature and one
  block per tuple, with one outcome-space check per attribute.

* :func:`multi_shard_blocks` — Algorithm 3 Gibbs over one multi shard's
  segments, each seeded with its deterministic segment seed.  All segments
  run as one fused lock-step
  :func:`~repro.core.tuple_dag.ensemble_sampling` ensemble on the compiled
  engine — all chains of all tuples in lock step — whichever engine the
  single kernel uses.

The ``_process_*`` functions are the :class:`ProcessExecutor` worker
protocol.  Each worker keeps one warm
:class:`~repro.core.engine.BatchInferenceEngine` for the life of the pool
(every multi shard runs on it), validated against the parent's
compiled-engine metadata before it serves a shard.  How the worker gets its
state depends on how the pool starts:

* **Forked pools inherit.**  The pool initializer gets an
  :class:`InheritedState` — the parent's model, its engine, and the
  plan's shards by key — which fork hands the worker unpickled, in its
  copy of the parent's memory: no model is rebuilt, and a submission is
  just the shard key.
* **forkserver and spawn pools rebuild.**  The initializer receives the
  persisted model JSON (never a pickled live engine) and rebuilds the
  model, and shards cross the process boundary in columnar form.  A
  :class:`ShardTask` carries the shard's key, kind, segments and its int32
  code matrix — no workload indices and no tuple objects; the worker
  rebuilds the rows as trusted views against its own model schema.

Either way the worker runs the unchanged :func:`run_shard`, and a
:class:`ShardOutput` carries back only one distribution per distinct tuple
(shared distributions are pickled once) plus the stats, timing and worker
label.
The parent validates and rebinds those distributions to its own tuples
(:meth:`ShardOutput.bind`), so every consumer of a
:class:`~repro.exec.base.ShardResult` sees the parent's tuple objects,
exactly as with in-process execution.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.engine import BatchInferenceEngine
from ..core.inference import VoterChoice, VotingScheme, infer_single
from ..core.mrsl import MRSLModel
from ..core.tuple_dag import SamplingStats, ensemble_sampling
from ..probdb.blocks import TupleBlock
from ..probdb.distribution import Distribution, normalize_rows
from ..relational.tuples import RelTuple, trusted_rows
from .base import Segment, Shard, ShardResult, split_by_segments
from .faults import ShardFault, apply_fault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.schema import Schema

__all__ = [
    "InheritedState",
    "ShardKnobs",
    "ShardOutput",
    "ShardTask",
    "single_shard_blocks",
    "multi_shard_blocks",
    "run_shard",
]


@dataclass(frozen=True)
class ShardKnobs:
    """The pipeline knobs a shard kernel needs, as picklable primitives."""

    v_choice: str
    v_scheme: str
    engine: str
    num_samples: int
    burn_in: int
    gibbs_chains: int = 1

    @classmethod
    def from_config(cls, cfg: Any) -> "ShardKnobs":
        """The kernel knobs of a :class:`~repro.api.config.DeriveConfig`."""
        return cls(
            v_choice=cfg.v_choice,
            v_scheme=cfg.v_scheme,
            engine=cfg.engine,
            num_samples=cfg.num_samples,
            burn_in=cfg.burn_in,
            gibbs_chains=cfg.gibbs_chains,
        )


def single_shard_blocks(
    tuples: Sequence[RelTuple],
    model: MRSLModel,
    knobs: ShardKnobs,
    batch_engine: BatchInferenceEngine | None = None,
    codes: np.ndarray | None = None,
) -> list[TupleBlock]:
    """Blocks for a batch of single-missing tuples under the chosen engine.

    The compiled path runs on the batch's code matrix — ``codes`` when the
    caller holds it (a shard's), stacked from ``tuples`` otherwise: one
    :meth:`~repro.core.engine.BatchInferenceEngine.infer_grouped` call
    numbers each missing attribute's distinct signatures and answers them.
    The naive path loops tuple-at-a-time and is kept as the correctness
    oracle.
    """
    v_choice = VoterChoice(knobs.v_choice)
    v_scheme = VotingScheme(knobs.v_scheme)
    if knobs.engine == "naive":
        blocks = []
        for t in tuples:
            attr = t.missing_positions[0]
            cpd = infer_single(t, model[attr], v_choice, v_scheme)
            # Block outcomes are 1-tuples of values, per TupleBlock's
            # convention.
            outcomes = [(value,) for value in cpd.outcomes]
            blocks.append(TupleBlock(t, Distribution(outcomes, cpd.probs)))
        return blocks
    if not tuples:
        return []
    if batch_engine is None:
        batch_engine = BatchInferenceEngine(model, v_choice, v_scheme)
    if codes is None:
        codes = np.stack([t.codes for t in tuples])
    blocks: list[TupleBlock] = [None] * len(tuples)  # type: ignore[list-item]
    for attr, positions, inverse, cpds in batch_engine.infer_grouped(
        codes, v_choice, v_scheme
    ):
        # The naive path normalizes twice (inside infer_single, then in the
        # block's Distribution); bit-for-bit parity takes both, row-wise.
        outcomes = [(value,) for value in model.schema[attr].domain]
        dists = Distribution.stack(outcomes, normalize_rows(cpds))
        # Every block of this attribute misses the same position and shares
        # one outcome set, so the public constructor checks the first and
        # the rest are trusted.  Tuples sharing a signature share one
        # distribution.
        members = positions.tolist()
        signature = inverse.tolist()
        blocks[members[0]] = TupleBlock(tuples[members[0]], dists[signature[0]])
        for pos, k in zip(members[1:], signature[1:]):
            blocks[pos] = TupleBlock._trusted(tuples[pos], dists[k])
    return blocks


def multi_shard_blocks(
    segments: Sequence[tuple[Sequence[RelTuple], int]],
    model: MRSLModel,
    knobs: ShardKnobs,
    batch_engine: BatchInferenceEngine | None = None,
):
    """Algorithm 3 over one multi shard: its ``(tuples, seed)`` segments.

    Returns ``(blocks, stats)`` exactly as
    :func:`~repro.core.tuple_dag.ensemble_sampling` does, blocks in segment
    order.  Each segment draws from its own generator seeded with its
    seed, which is what makes the result independent of which worker (or
    how many workers) ran it, and of which segments share its shard.  All
    segments run as one fused lock-step ensemble, reusing the caller's
    warm ``batch_engine`` when given.
    """
    return ensemble_sampling(
        model,
        [(tuples, np.random.default_rng(seed)) for tuples, seed in segments],
        num_samples=knobs.num_samples,
        burn_in=knobs.burn_in,
        chains=knobs.gibbs_chains,
        v_choice=knobs.v_choice,
        v_scheme=knobs.v_scheme,
        batch_engine=batch_engine,
    )


def run_shard(
    shard: Shard,
    model: MRSLModel,
    knobs: ShardKnobs,
    batch_engine: BatchInferenceEngine | None = None,
    worker: str = "main",
    fault: ShardFault | None = None,
    deadline: float | None = None,
    allow_crash: bool = False,
) -> ShardResult:
    """Run one shard through the matching kernel, timing it.

    ``fault`` is this attempt's injected fault (test/chaos harness only);
    it fires before the kernel so a faulted attempt never produces blocks.
    """
    start = time.perf_counter()
    apply_fault(fault, deadline=deadline, allow_crash=allow_crash)
    if shard.kind == "single":
        blocks = single_shard_blocks(
            shard.tuples, model, knobs, batch_engine=batch_engine, codes=shard.codes
        )
        stats = None
    elif shard.kind == "multi":
        assert all(
            s.seed is not None for s in shard.segments
        ), "multi shards carry seeded segments"
        segments = zip(
            split_by_segments(shard.tuples, shard.segments),
            (s.seed for s in shard.segments),
        )
        blocks, stats = multi_shard_blocks(
            list(segments), model, knobs, batch_engine=batch_engine
        )
    else:
        raise ValueError(f"unknown shard kind {shard.kind!r}")
    return ShardResult(
        key=shard.key,
        kind=shard.kind,
        indices=shard.indices,
        blocks=tuple(blocks),
        stats=stats,
        elapsed=time.perf_counter() - start,
        worker=worker,
        segments=shard.segments,
        rows=shard.rows,
    )


# -- ProcessExecutor worker protocol ----------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """One shard on the process wire: its rows as a single code matrix.

    Workload indices never leave the parent, and the rows travel as the
    shard's ``codes`` (one int32 row per distinct tuple) instead of pickled
    :class:`~repro.relational.tuples.RelTuple` objects, each of which would
    be rebuilt through its per-cell checking constructor.
    """

    key: str
    kind: str
    segments: tuple[Segment, ...]
    codes: np.ndarray

    @classmethod
    def encode(cls, shard: Shard) -> "ShardTask":
        """``shard``'s code matrix; called per submission, so a requeued
        shard is re-encoded from the parent's :class:`Shard`."""
        return cls(
            key=shard.key,
            kind=shard.kind,
            segments=shard.segments,
            codes=shard.codes,
        )

    def decode(self, schema: "Schema") -> Shard:
        """The shard over trusted row views of ``codes`` under ``schema``.

        The codes are rows of the parent's valid tuples, and the
        worker's rebuilt model matches the parent's, so the rows skip the
        per-cell check as :class:`~repro.relational.relation.Relation`
        rows do.
        """
        codes = self.codes
        if codes.ndim != 2 or codes.shape[1] != len(schema):
            raise ValueError(
                f"shard {self.key}: code matrix of shape {codes.shape} for a "
                f"schema of {len(schema)} attributes"
            )
        codes.setflags(write=False)
        tuples = tuple(trusted_rows(schema, codes))
        return Shard(
            key=self.key,
            kind=self.kind,
            indices=tuple(range(len(tuples))),
            tuples=tuples,
            segments=self.segments,
            codes=codes,
        )


@dataclass(frozen=True)
class ShardOutput:
    """A worker's answer on the process wire: one distribution per
    distinct tuple of the shard.

    Tuples sharing a signature (single) share one
    :class:`~repro.probdb.distribution.Distribution` object, which pickle
    ships once.
    """

    distributions: tuple[Distribution, ...]
    stats: SamplingStats | None
    elapsed: float
    worker: str

    def bind(self, shard: Shard) -> ShardResult:
        """Rebind the distributions to the parent's own ``shard.tuples``.

        The count must match the shard's distinct tuples.  Blocks over one
        (missing positions, outcome set) pair go through the public
        :class:`~repro.probdb.blocks.TupleBlock` constructor once and are
        trusted after that, as in the serial single kernel — so a result
        whose outcomes fall outside the missing attributes' domains raises
        instead of landing in the database.
        """
        dists = self.distributions
        if len(dists) != len(shard.tuples):
            raise ValueError(
                f"shard {shard.key} came back with {len(dists)} distributions "
                f"for {len(shard.tuples)} tuples"
            )
        checked: set[tuple[tuple[int, ...], int]] = set()
        blocks = []
        for base, dist in zip(shard.tuples, dists):
            # Every distribution stays alive in ``dists``, so the id of its
            # outcomes tuple names one outcome set for the whole loop.
            space = (base.missing_positions, id(dist.outcomes))
            if space in checked:
                blocks.append(TupleBlock._trusted(base, dist))
            else:
                blocks.append(TupleBlock(base, dist))
                checked.add(space)
        return ShardResult(
            key=shard.key,
            kind=shard.kind,
            indices=shard.indices,
            blocks=tuple(blocks),
            stats=self.stats,
            elapsed=self.elapsed,
            worker=self.worker,
            segments=shard.segments,
            rows=shard.rows,
        )


@dataclass(frozen=True)
class InheritedState:
    """The parent's state that forked pool workers take instead of a rebuild.

    ``engine`` is the parent's engine: its compiled lattices and CPD memo
    come along.  ``shards`` maps each planned shard's key to the parent's
    :class:`~repro.exec.base.Shard`, so a submission names its shard
    instead of shipping its rows.
    """

    model: MRSLModel
    engine: BatchInferenceEngine
    shards: Mapping[str, Shard]


#: Per-worker-process state: built once by the pool initializer, reused by
#: every shard the worker runs (the "one warm engine per worker" invariant).
_WORKER_STATE: dict[str, Any] | None = None


def _process_worker_init(
    model_doc: Mapping[str, Any] | None,
    knobs: ShardKnobs,
    expected_metadata: Mapping[str, Any],
    inherited: InheritedState | None = None,
) -> None:
    """Set up the worker's warm engine and validate it against the parent.

    A forked worker gets the parent's model, engine and shards as
    ``inherited``, and ``model_doc`` None.  Otherwise ``model_doc`` is
    :func:`~repro.core.persistence.model_to_dict` output and the worker
    rebuilds the model from it.  Either way the worker's compiled
    structures must match the parent's ``expected_metadata`` before it
    serves shards.
    """
    global _WORKER_STATE
    from ..core.persistence import model_from_dict, verify_compiled_metadata

    if inherited is not None:
        model, engine = inherited.model, inherited.engine
        shards = inherited.shards
    else:
        model = model_from_dict(dict(model_doc))
        engine = BatchInferenceEngine(model, knobs.v_choice, knobs.v_scheme)
        shards = {}
    # Validates (and warms) the model's compiled lattices, the ones the
    # engine reads.
    verify_compiled_metadata(model, expected_metadata)
    _WORKER_STATE = {
        "model": model, "engine": engine, "knobs": knobs, "shards": shards
    }


def _process_run_shard(
    task: ShardTask | str,
    fault: ShardFault | None = None,
    deadline: float | None = None,
) -> ShardOutput:
    """Run one shard against the worker's warm state.

    ``task`` is a shard key on an inherited pool and a :class:`ShardTask`
    otherwise.  ``fault`` is decided per attempt by the parent's retry
    loop and shipped with the task; a ``"crash"`` fault hard-exits this
    worker, breaking the pool — exactly the failure mode the parent's
    recovery path handles.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker process was not initialized")
    model = state["model"]
    if isinstance(task, str):
        shard = state["shards"][task]
    else:
        shard = task.decode(model.schema)
    result = run_shard(
        shard,
        model,
        state["knobs"],
        batch_engine=state["engine"],
        worker=f"pid-{os.getpid()}",
        fault=fault,
        deadline=deadline,
        allow_crash=True,
    )
    return ShardOutput(
        distributions=tuple(b.distribution for b in result.blocks),
        stats=result.stats,
        elapsed=result.elapsed,
        worker=result.worker,
    )
