"""Shard kernels: the per-shard computation, runnable in any process.

Two kernels, one per shard kind:

* :func:`single_shard_blocks` — Algorithm 2 over a batch of single-missing
  tuples.  This is the computation that used to live inline in
  :func:`repro.core.derive.single_missing_blocks`; it is hoisted here so
  the serial path, thread workers, and process workers all run the exact
  same code (and therefore produce bit-identical distributions).

* :func:`multi_shard_blocks` — Algorithm 3 Gibbs over one multi shard,
  seeded with the shard's deterministic seed.  Under the default knobs
  (compiled engine, ``tuple_dag`` strategy, ``gibbs_vectorized`` on) the
  shard's tuples run as one vectorized
  :func:`~repro.core.tuple_dag.ensemble_sampling` batch — all chains of
  all tuples in lock step; otherwise the scalar
  :func:`~repro.core.tuple_dag.workload_sampling` oracle serves the shard
  exactly as before.

The ``_process_*`` functions are the :class:`ProcessExecutor` worker
protocol: the initializer receives the persisted model JSON (never a
pickled live engine), rebuilds the model, validates it against the parent's
compiled-engine metadata, and keeps one warm
:class:`~repro.core.engine.BatchInferenceEngine` per worker process for the
life of the pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.engine import BatchInferenceEngine
from ..core.inference import VoterChoice, VotingScheme, infer_single
from ..core.mrsl import MRSLModel
from ..core.tuple_dag import ensemble_sampling, workload_sampling
from ..probdb.blocks import TupleBlock
from ..probdb.distribution import Distribution
from ..relational.tuples import RelTuple
from .base import Shard, ShardResult
from .faults import ShardFault, apply_fault

__all__ = [
    "ShardKnobs",
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
    strategy: str
    gibbs_chains: int = 1
    gibbs_vectorized: bool = True

    @classmethod
    def from_config(cls, cfg: Any) -> "ShardKnobs":
        """Extract the kernel knobs from any DeriveConfig-shaped object."""
        return cls(
            v_choice=cfg.v_choice,
            v_scheme=cfg.v_scheme,
            engine=cfg.engine,
            num_samples=cfg.num_samples,
            burn_in=cfg.burn_in,
            strategy=cfg.strategy,
            gibbs_chains=getattr(cfg, "gibbs_chains", 1),
            gibbs_vectorized=getattr(cfg, "gibbs_vectorized", True),
        )

    @property
    def vectorized_gibbs(self) -> bool:
        """Whether multi shards run the vectorized ensemble kernel.

        Requires the compiled engine (the naive engine is the scalar
        oracle) and the default ``tuple_dag`` strategy — the explicit
        ablation strategies (``tuple_at_a_time``, ``all_at_a_time``) keep
        their faithful scalar implementations.
        """
        return (
            self.gibbs_vectorized
            and self.engine == "compiled"
            and self.strategy == "tuple_dag"
        )


def single_shard_blocks(
    tuples: Sequence[RelTuple],
    model: MRSLModel,
    knobs: ShardKnobs,
    batch_engine: BatchInferenceEngine | None = None,
) -> list[TupleBlock]:
    """Blocks for a batch of single-missing tuples under the chosen engine.

    The compiled path groups the batch by evidence signature and serves
    all its groups with one batched match + combine per attribute; the
    naive path loops tuple-at-a-time and is kept as the correctness oracle.
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
    if batch_engine is None:
        batch_engine = BatchInferenceEngine(model, v_choice, v_scheme)
    cpds = batch_engine.infer_batch(tuples, v_choice, v_scheme)
    # Tuples sharing a CPD (same evidence signature) share one immutable
    # block distribution; only the per-tuple base differs.  Wrapping the
    # value-level Distribution (rather than the raw CPD vector) matters for
    # the oracle guarantee: the naive path normalizes twice — once inside
    # infer_single, once here — and bit-for-bit parity requires the same.
    shared: dict[int, Distribution] = {}
    blocks = []
    for t, cpd in zip(tuples, cpds):
        dist = shared.get(id(cpd))
        if dist is None:
            outcomes = [(value,) for value in cpd.outcomes]
            dist = Distribution(outcomes, cpd.probs)
            shared[id(cpd)] = dist
        blocks.append(TupleBlock(t, dist))
    return blocks


def multi_shard_blocks(
    tuples: Sequence[RelTuple],
    model: MRSLModel,
    knobs: ShardKnobs,
    seed: int,
    batch_engine: BatchInferenceEngine | None = None,
):
    """Algorithm 3 over one multi shard with its own seeded RNG.

    Returns ``(blocks, stats)`` exactly as
    :func:`~repro.core.tuple_dag.workload_sampling` does.  The per-shard
    generator is what makes the result independent of which worker (or how
    many workers) ran the shard.  Under the vectorized knobs the shard's
    tuple batch runs as one lock-step
    :func:`~repro.core.tuple_dag.ensemble_sampling` ensemble, reusing the
    worker's warm ``batch_engine``; otherwise the scalar oracle runs (and
    builds its own engine, exactly as before the vectorized kernel).
    """
    if knobs.vectorized_gibbs:
        return ensemble_sampling(
            model,
            list(tuples),
            num_samples=knobs.num_samples,
            burn_in=knobs.burn_in,
            chains=knobs.gibbs_chains,
            v_choice=knobs.v_choice,
            v_scheme=knobs.v_scheme,
            rng=np.random.default_rng(seed),
            batch_engine=batch_engine,
        )
    return workload_sampling(
        model,
        list(tuples),
        num_samples=knobs.num_samples,
        burn_in=knobs.burn_in,
        strategy=knobs.strategy,
        v_choice=knobs.v_choice,
        v_scheme=knobs.v_scheme,
        rng=np.random.default_rng(seed),
        engine=knobs.engine,
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
            shard.tuples, model, knobs, batch_engine=batch_engine
        )
        stats = None
    elif shard.kind == "multi":
        assert shard.seed is not None, "multi shards carry a seed"
        blocks, stats = multi_shard_blocks(
            shard.tuples, model, knobs, shard.seed, batch_engine=batch_engine
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
    )


# -- ProcessExecutor worker protocol ----------------------------------------

#: Per-worker-process state: built once by the pool initializer, reused by
#: every shard the worker runs (the "one warm engine per worker" invariant).
_WORKER_STATE: dict[str, Any] | None = None


def _process_worker_init(
    model_doc: Mapping[str, Any],
    knobs: ShardKnobs,
    expected_metadata: Mapping[str, Any] | None,
) -> None:
    """Rebuild the model from its persisted JSON form inside the worker.

    The parent ships :func:`~repro.core.persistence.model_to_dict` output
    plus its compiled-engine metadata; the worker rebuilds and *validates*
    that its compiled structures match the parent's before serving shards.
    """
    global _WORKER_STATE
    from ..core.persistence import model_from_dict, verify_compiled_metadata

    model = model_from_dict(dict(model_doc))
    engine = (
        BatchInferenceEngine(model, knobs.v_choice, knobs.v_scheme)
        if knobs.engine == "compiled"
        else None
    )
    if expected_metadata is not None:
        # Validate (and warm) the engine's own compiled structures rather
        # than compiling a throwaway second copy.
        verify_compiled_metadata(
            model,
            expected_metadata,
            compiled=None if engine is None else engine.compiled,
        )
    _WORKER_STATE = {"model": model, "engine": engine, "knobs": knobs}


def _process_run_shard(
    shard: Shard,
    fault: ShardFault | None = None,
    deadline: float | None = None,
) -> ShardResult:
    """Run one shard against the worker's warm state.

    ``fault`` is decided per attempt by the parent's retry loop and shipped
    with the task; a ``"crash"`` fault hard-exits this worker, breaking the
    pool — exactly the failure mode the parent's recovery path handles.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("worker process was not initialized")
    return run_shard(
        shard,
        state["model"],
        state["knobs"],
        batch_engine=state["engine"],
        worker=f"pid-{os.getpid()}",
        fault=fault,
        deadline=deadline,
        allow_crash=True,
    )
