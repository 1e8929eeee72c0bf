"""Workload-driven sampling with the tuple DAG (Section V-B, Algorithm 3).

Incomplete tuples related by subsumption can share Gibbs samples: a sample
drawn for a more general tuple ``r`` (fewer known values) that happens to
agree with a more specific tuple ``s``'s known values is also a valid sample
for ``s``.  Algorithm 3 arranges the workload in a DAG ordered by
subsumption, samples only at the roots (round-robin), and propagates
matching samples downward when a root completes; tuples left short are
promoted to roots once all their ancestors finish.

Three strategies are provided for the Fig. 11 comparison and the
all-at-a-time ablation:

* ``tuple_dag``       — Algorithm 3 (the paper's optimization);
* ``tuple_at_a_time`` — an independent chain per tuple (the baseline);
* ``all_at_a_time``   — one unclamped chain over the full space, filtered
  per tuple (the strawman whose waste motivates Section V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..probdb.blocks import TupleBlock
from ..relational.tuples import MISSING_CODE, RelTuple, proper_subsumes
from .engine import DEFAULT_ENGINE, BatchInferenceEngine
from .gibbs import (
    GibbsChain,
    GibbsEnsemble,
    GibbsSampler,
    histogram_distributions,
    samples_to_distribution,
    samples_to_distributions,
)
from .inference import VoterChoice, VotingScheme
from .mrsl import MRSLModel

__all__ = [
    "STRATEGIES",
    "SamplingStats",
    "TupleDAG",
    "ensemble_sampling",
    "workload_sampling",
]

#: Recognized multi-attribute workload strategies.
STRATEGIES = ("tuple_dag", "tuple_at_a_time", "all_at_a_time")


@dataclass
class SamplingStats:
    """Cost counters for one workload run (the Fig. 11 measurements)."""

    #: total Gibbs draws, burn-in included ("sample size" in Fig. 11)
    total_draws: int = 0
    #: draws spent on burn-in only
    burn_in_draws: int = 0
    #: number of tuples whose samples were (partly) inherited from a parent
    shared_tuples: int = 0
    #: per-tuple shortfall filled by promotion sampling
    promoted_tuples: int = 0

    def merge(self, other: "SamplingStats") -> None:
        """Add ``other``'s counters into these."""
        self.total_draws += other.total_draws
        self.burn_in_draws += other.burn_in_draws
        self.shared_tuples += other.shared_tuples
        self.promoted_tuples += other.promoted_tuples


class _Node:
    """Book-keeping for one distinct workload tuple."""

    __slots__ = ("tuple", "parents", "children", "samples", "chain", "completed")

    def __init__(self, t: RelTuple):
        self.tuple = t
        self.parents: list["_Node"] = []  # tuples that subsume this one
        self.children: list["_Node"] = []  # tuples this one subsumes
        self.samples: list[tuple[int, ...]] = []
        self.chain: GibbsChain | None = None
        self.completed = False


class TupleDAG:
    """The subsumption DAG over a workload of distinct incomplete tuples."""

    def __init__(self, tuples: Sequence[RelTuple]):
        distinct: dict[RelTuple, _Node] = {}
        for t in tuples:
            if t.is_complete:
                raise ValueError("complete tuples do not belong in the workload")
            if t not in distinct:
                distinct[t] = _Node(t)
        self.nodes = list(distinct.values())
        self._by_tuple = distinct
        for a in self.nodes:
            for b in self.nodes:
                if a is not b and proper_subsumes(a.tuple, b.tuple):
                    # a subsumes b: a is more general, b inherits a's samples.
                    a.children.append(b)
                    b.parents.append(a)

    def roots(self) -> list[_Node]:
        """Tuples not subsumed by any other workload tuple."""
        return [n for n in self.nodes if not n.parents]

    def node(self, t: RelTuple) -> _Node:
        return self._by_tuple[t]

    def __len__(self) -> int:
        return len(self.nodes)


def _share_samples(parent: _Node, child: _Node, target: int) -> None:
    """``ShareSamples``: copy parent samples that match the child's knowns.

    A parent sample fixes the parent's missing attributes; combined with the
    parent's known values it is a complete point.  It matches the child when
    it agrees with every value the child knows (the child knows strictly
    more attributes).  Matching samples are re-expressed over the child's
    missing positions.
    """
    p_missing = parent.tuple.missing_positions
    c_codes = child.tuple.codes
    c_missing = child.tuple.missing_positions
    # Positions the child knows but the parent does not: the sample must
    # agree there.  (Positions known to both already agree by subsumption.)
    check = [
        (i, pos, int(c_codes[pos]))
        for i, pos in enumerate(p_missing)
        if c_codes[pos] != MISSING_CODE
    ]
    # Child-missing positions are a subset of parent-missing positions.
    take = [p_missing.index(pos) for pos in c_missing]
    for sample in parent.samples:
        if len(child.samples) >= target:
            break
        if all(sample[i] == value for i, pos, value in check):
            child.samples.append(tuple(sample[i] for i in take))


def _finalize(
    sampler: GibbsSampler, node: _Node, num_samples: int
) -> TupleBlock:
    dist = samples_to_distribution(
        sampler.schema, node.tuple, node.samples[:num_samples]
    )
    return TupleBlock(node.tuple, dist)


def _run_tuple_dag(
    sampler: GibbsSampler,
    dag: TupleDAG,
    num_samples: int,
    burn_in: int,
    stats: SamplingStats,
) -> None:
    """Algorithm 3's main loop, mutating node sample lists in place."""
    roots = list(dag.roots())
    while roots:
        next_roots: list[_Node] = []
        # Round-robin: one sample per live root per pass (GetNext).
        for node in roots:
            if node.chain is None:
                node.chain = sampler.chain(node.tuple)
                node.chain.run_burn_in(burn_in)
                stats.total_draws += burn_in
                stats.burn_in_draws += burn_in
            node.samples.append(node.chain.step())
            stats.total_draws += 1
            if len(node.samples) < num_samples:
                next_roots.append(node)
                continue
            # Finished sampling for this root: propagate to subsumees.
            node.completed = True
            for child in node.children:
                if child.completed:
                    continue
                had = len(child.samples)
                _share_samples(node, child, num_samples)
                if len(child.samples) > had:
                    stats.shared_tuples += 1
                if len(child.samples) >= num_samples:
                    child.completed = True
                elif all(p.completed for p in child.parents):
                    # Promotion: every ancestor is done but the child is
                    # short on samples; it becomes a root of its own.
                    stats.promoted_tuples += 1
                    next_roots.append(child)
        roots = next_roots


def _run_tuple_at_a_time(
    sampler: GibbsSampler,
    dag: TupleDAG,
    num_samples: int,
    burn_in: int,
    stats: SamplingStats,
) -> None:
    """Baseline: an independent clamped chain per distinct tuple."""
    for node in dag.nodes:
        chain = sampler.chain(node.tuple)
        chain.run_burn_in(burn_in)
        stats.total_draws += burn_in
        stats.burn_in_draws += burn_in
        for _ in range(num_samples):
            node.samples.append(chain.step())
            stats.total_draws += 1
        node.completed = True


def _run_all_at_a_time(
    sampler: GibbsSampler,
    dag: TupleDAG,
    num_samples: int,
    burn_in: int,
    stats: SamplingStats,
    max_draws: int,
) -> None:
    """Strawman: one chain over the fully unknown tuple ``t*``.

    Every tuple subsumes-matches against the unrestricted samples; tuples
    with low-support known portions waste most draws, which is the paper's
    argument for clamped sampling.  Bounded by ``max_draws`` to keep the
    ablation safe; tuples left short of ``num_samples`` keep whatever
    matched.
    """
    schema = sampler.schema
    star = RelTuple(schema, np.full(len(schema), MISSING_CODE, dtype=np.int32))
    chain = sampler.chain(star)
    chain.run_burn_in(burn_in)
    stats.total_draws += burn_in
    stats.burn_in_draws += burn_in
    pending = list(dag.nodes)
    while pending and stats.total_draws < max_draws:
        sample = chain.step()  # full assignment over all attributes
        stats.total_draws += 1
        still = []
        for node in pending:
            codes = node.tuple.codes
            known_ok = all(
                sample[pos] == codes[pos]
                for pos in node.tuple.complete_positions
            )
            if known_ok:
                node.samples.append(
                    tuple(sample[pos] for pos in node.tuple.missing_positions)
                )
            if len(node.samples) >= num_samples:
                node.completed = True
            else:
                still.append(node)
        pending = still


def ensemble_sampling(
    model: MRSLModel,
    segments: "Sequence[tuple[Sequence[RelTuple], np.random.Generator | int | None]]",
    num_samples: int = 500,
    burn_in: int = 100,
    chains: int = 1,
    v_choice: VoterChoice | str = VoterChoice.BEST,
    v_scheme: VotingScheme | str = VotingScheme.AVERAGED,
    batch_engine: BatchInferenceEngine | None = None,
) -> tuple[list[TupleBlock], SamplingStats]:
    """Vectorized workload estimation: every tuple's chains in lock step.

    The drop-in counterpart of :func:`workload_sampling` for the compiled
    engine.  ``segments`` are ``(tuples, rng)`` pairs — ``rng`` a
    ``Generator`` or a seed; pass one pair for a plain workload.  Instead
    of walking the tuple DAG one scalar chain step at a time, all
    ``chains`` chains of every *distinct* tuple of every segment advance
    together in one fused :class:`~repro.core.gibbs.GibbsEnsemble`, so the
    whole call costs one batched CPD memo read per (sweep, missing-attribute
    rank).  Each tuple's histogram is counted as its chains sweep
    (:meth:`~repro.core.gibbs.GibbsEnsemble.counts`) and becomes its block
    through :func:`~repro.core.gibbs.histogram_distributions`; where some
    missing pattern's outcome space is sparse, the ensemble's samples
    (:meth:`~repro.core.gibbs.GibbsEnsemble.run`) go through
    :func:`~repro.core.gibbs.samples_to_distributions` instead, which gives
    a dense pattern the same bytes.
    Each segment draws from its own generator exactly as it would alone,
    so its blocks do not depend on which other segments share the call.
    Per-tuple samples are pooled across the tuple's chains — more chains
    means more independent starting points mixed into the same
    ``num_samples`` budget.

    There is no cross-tuple sample sharing: vectorization makes drawing for
    every tuple directly cheaper than the DAG's bookkeeping, so
    ``shared_tuples`` / ``promoted_tuples`` stay zero and ``total_draws``
    counts every chain's sweeps.  Returns one block per input tuple
    (segments concatenated, input order; duplicates within a segment share
    their block) plus the cost counters, exactly like
    :func:`workload_sampling`.

    ``batch_engine`` reuses a caller's warm engine: its CPD memos carry
    over, so signatures it has seen cost no recomputation; results are
    identical with or without one.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    sampler = GibbsSampler(
        model,
        v_choice=v_choice,
        v_scheme=v_scheme,
        rng=0,  # unused: every segment brings its own generator
        engine="compiled",
        batch_engine=batch_engine,
    )
    segments = list(segments)
    # Dedupe each segment on code bytes (first occurrence wins): duplicate
    # rows are distinct RelTuple objects, and bytes compare far faster.
    keys: list[list[bytes]] = []
    distinct: list[dict[bytes, RelTuple]] = []
    for tuples, _ in segments:
        keys.append([t.codes.tobytes() for t in tuples])
        unique: dict[bytes, RelTuple] = {}
        for key, t in zip(keys[-1], tuples):
            unique.setdefault(key, t)
        distinct.append(unique)
    ensemble = GibbsEnsemble(
        sampler,
        [
            (list(unique.values()), rng)
            for unique, (_, rng) in zip(distinct, segments)
        ],
        chains=chains,
    )
    bases = ensemble.bases
    sweeps = -(-num_samples // chains)
    stats = SamplingStats(
        total_draws=(burn_in + sweeps) * chains * len(bases),
        burn_in_draws=burn_in * chains * len(bases),
    )
    histograms = ensemble.counts(num_samples, burn_in=burn_in)
    if histograms is None:
        samples = ensemble.run(num_samples, burn_in=burn_in)
    built: list[TupleBlock] = [None] * len(bases)  # type: ignore[list-item]
    for p, (missing, members, _) in enumerate(ensemble.patterns):
        if histograms is not None:
            dists = histogram_distributions(
                sampler.schema, missing, histograms[p], num_samples
            )
        else:
            dists = samples_to_distributions(
                sampler.schema, missing, [samples[i] for i in members]
            )
        # Blocks over one outcomes tuple (a dense pattern's) pass the
        # TupleBlock checks once.
        checked: set[int] = set()
        for i, dist in zip(members, dists):
            if id(dist.outcomes) in checked:
                built[i] = TupleBlock._trusted(bases[i], dist)
            else:
                built[i] = TupleBlock(bases[i], dist)
                checked.add(id(dist.outcomes))
    blocks: list[TupleBlock] = []
    lo = 0
    for segment_keys, unique in zip(keys, distinct):
        slot = {key: lo + j for j, key in enumerate(unique)}
        blocks.extend(built[slot[key]] for key in segment_keys)
        lo += len(unique)
    return blocks, stats


def workload_sampling(
    model: MRSLModel,
    tuples: Sequence[RelTuple],
    num_samples: int = 500,
    burn_in: int = 100,
    strategy: str = "tuple_dag",
    v_choice: VoterChoice | str = VoterChoice.BEST,
    v_scheme: VotingScheme | str = VotingScheme.AVERAGED,
    rng: np.random.Generator | int | None = None,
    max_draws: int | None = None,
    engine: str = DEFAULT_ENGINE,
) -> tuple[list[TupleBlock], SamplingStats]:
    """Estimate ``Δt`` for a workload of multi-missing tuples.

    Returns one :class:`TupleBlock` per input tuple (input order; duplicate
    tuples share their block) plus the :class:`SamplingStats` cost counters
    that Fig. 11 plots.

    ``strategy`` selects ``tuple_dag`` (Algorithm 3), ``tuple_at_a_time``
    (independent chains) or ``all_at_a_time`` (single unclamped chain,
    bounded by ``max_draws``); ``engine`` selects how the conditional CPDs
    inside each Gibbs step are computed (compiled by default).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    sampler = GibbsSampler(
        model, v_choice=v_choice, v_scheme=v_scheme, rng=rng, engine=engine
    )
    dag = TupleDAG(tuples)
    stats = SamplingStats()
    if strategy == "tuple_dag":
        _run_tuple_dag(sampler, dag, num_samples, burn_in, stats)
    elif strategy == "tuple_at_a_time":
        _run_tuple_at_a_time(sampler, dag, num_samples, burn_in, stats)
    elif strategy == "all_at_a_time":
        if max_draws is None:
            max_draws = 200 * num_samples * max(len(dag), 1)
        _run_all_at_a_time(sampler, dag, num_samples, burn_in, stats, max_draws)
    else:
        raise ValueError(f"strategy must be one of {', '.join(STRATEGIES)}")
    blocks = {}
    for node in dag.nodes:
        if not node.samples:
            raise RuntimeError(
                f"no samples accumulated for {node.tuple!r}; "
                "increase max_draws or num_samples"
            )
        blocks[node.tuple] = _finalize(sampler, node, num_samples)
    return [blocks[t] for t in tuples], stats
