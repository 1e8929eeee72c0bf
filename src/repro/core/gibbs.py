"""Ordered Gibbs sampling over MRSL models (Section V-A).

When a tuple misses several attribute values, their joint distribution is
estimated by ordered Gibbs sampling [17]: start from a random assignment of
the missing attributes, then repeatedly cycle through them, resampling each
from the CPD estimated by Algorithm 2 with *all other* attributes (observed
values plus the chain's current state) given as evidence.  Observed
attributes stay clamped throughout — this is the paper's tuple-at-a-time
restriction of the sample space.

A shared, size-bounded CPD cache implements the "caching the results of
partial computations for re-use" optimization of Section I-B; it is reused
across chain steps, tuples, and the tuple-DAG workload driver.  By default
conditional CPDs come from the compiled engine's array memos
(:mod:`repro.core.engine`), keyed on the evidence signature; the naive
voter enumeration, kept as the ``engine="naive"`` correctness oracle,
memoizes on the full conditioning assignment in its own LRU.

Two chain drivers share the sampler:

* :class:`GibbsChain` — the scalar reference path: one chain, one Python
  ``conditional_probs`` call and one ``rng.choice`` per resampled
  attribute.
* :class:`GibbsEnsemble` — the vectorized kernel: all chains of all tuples
  of one or more seeded segments advance in lock step, one batched read of
  the engine's CDF memos and one inverse-CDF draw per (sweep, rank of a
  missing attribute within its row).
  Each segment consumes its own generator exactly as if it ran alone, so
  fusing segments never changes a sample.  With one chain and one tuple it
  consumes the *same* RNG stream as the scalar chain and reproduces its
  samples exactly; larger segments draw in a different (equally
  admissible) order.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from ..probdb.blocks import TupleBlock
from ..probdb.distribution import DEFAULT_SMOOTHING_FLOOR, Distribution
from ..relational.tuples import MISSING_CODE, RelTuple
from . import native
from .compiled import LRUCache
from .engine import (
    _ABSENT,
    DEFAULT_CPD_CACHE_SIZE,
    DEFAULT_ENGINE,
    BatchInferenceEngine,
    unique_rows,
    validate_engine,
)
from .inference import VoterChoice, VotingScheme, _combine, select_voters
from .mrsl import MRSLModel

__all__ = [
    "GibbsChain",
    "GibbsEnsemble",
    "GibbsSampler",
    "estimate_joint",
    "histogram_distributions",
    "samples_to_distribution",
    "samples_to_distributions",
]

#: Outcome spaces larger than this are reported over observed outcomes only
#: (no exhaustive smoothing over the full Cartesian product).
MAX_DENSE_OUTCOMES = 100_000


class GibbsSampler:
    """A reusable ordered Gibbs sampler over one MRSL model.

    One sampler instance holds the voter configuration and the conditional
    CPD cache; per-tuple chains are created by :meth:`chain`.
    """

    def __init__(
        self,
        model: MRSLModel,
        v_choice: VoterChoice | str = VoterChoice.BEST,
        v_scheme: VotingScheme | str = VotingScheme.AVERAGED,
        rng: np.random.Generator | int | None = None,
        engine: str = DEFAULT_ENGINE,
        cache_size: int | None = DEFAULT_CPD_CACHE_SIZE,
        batch_engine: BatchInferenceEngine | None = None,
    ):
        self.model = model
        self.schema = model.schema
        self.v_choice = VoterChoice(v_choice)
        self.v_scheme = VotingScheme(v_scheme)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.rng = rng
        self.engine = validate_engine(engine)
        if batch_engine is not None:
            # A caller's warm engine (the shard runtime path): its compiled
            # structures and CPD cache carry over across samplers.  CPDs are
            # requested with this sampler's voting config explicitly, so the
            # engine's own defaults never leak in.
            if batch_engine.model is not model:
                raise ValueError(
                    "batch_engine wraps a different model than the sampler's"
                )
            if self.engine != "compiled":
                raise ValueError(
                    "a warm batch_engine requires engine='compiled'"
                )
            self._engine = batch_engine
        elif self.engine == "compiled":
            self._engine = BatchInferenceEngine(
                model, self.v_choice, self.v_scheme, cache_size=cache_size
            )
        else:
            self._engine = None
            self._cpd_cache = LRUCache(cache_size)
        #: total single-attribute resampling steps taken
        self.steps = 0

    # -- conditional CPDs -------------------------------------------------------

    @property
    def cpd_evaluations(self) -> int:
        """Total conditional-CPD evaluations (cache misses), for diagnostics."""
        return self.cache_info()["misses"]

    @property
    def cache_hits(self) -> int:
        """Conditional-CPD cache hits, for diagnostics."""
        return self.cache_info()["hits"]

    def cache_info(self) -> dict[str, int | None]:
        """Hit/miss/eviction counters of the conditional-CPD cache."""
        if self._engine is not None:
            return self._engine.cache_info()
        return self._cpd_cache.info()

    def conditional_probs(self, codes: np.ndarray, attr: int) -> np.ndarray:
        """CPD vector for ``attr`` with every other attribute of ``codes`` known.

        ``codes`` is a full code vector whose position ``attr`` is ignored
        (treated as missing).  The compiled path memoizes on the evidence
        *signature* in the engine's memo, so assignments differing only on
        attributes no meta-rule conditions on share one entry; the naive
        path memoizes on the conditioning assignment in a bounded LRU.
        """
        if self._engine is not None:
            return self._engine.conditional_probs(
                codes, attr, self.v_choice, self.v_scheme
            )
        masked = codes.copy()
        masked[attr] = MISSING_CODE
        key = (attr, masked.tobytes())
        cached = self._cpd_cache.get(key)
        if cached is not None:
            return cached
        t = RelTuple(self.schema, masked)
        voters = select_voters(self.model[attr], t, self.v_choice)
        probs = _combine(voters, self.schema[attr].cardinality, self.v_scheme)
        # Strict positivity is required for Gibbs irreducibility; meta-rule
        # CPDs are positive by construction and the uniform fallback is too,
        # so a learned model never trips this — but hand-built or mutated
        # CPDs can carry exact zeros, which would freeze the chain out of
        # states (and a zero-sum vector would crash ``rng.choice``).  Clamp
        # to the smoothing floor and renormalize when the invariant fails.
        if not (probs > 0.0).all():
            probs = np.maximum(probs, DEFAULT_SMOOTHING_FLOOR)
            probs = probs / probs.sum()
        self._cpd_cache.put(key, probs)
        return probs

    # -- chains ----------------------------------------------------------------

    def chain(self, base: RelTuple) -> "GibbsChain":
        """Create a chain clamped to ``base``'s observed values."""
        return GibbsChain(self, base)

    def ensemble(
        self, bases: Sequence[RelTuple], chains: int = 1
    ) -> "GibbsEnsemble":
        """Create a lock-step vectorized ensemble over ``bases``.

        One segment drawn from this sampler's generator; ``chains``
        independent chains per tuple advance together.  Requires the
        compiled engine (the naive path stays scalar by design).
        """
        return GibbsEnsemble(self, [(bases, self.rng)], chains=chains)

    # -- one-shot estimation ------------------------------------------------------

    def estimate(
        self, base: RelTuple, num_samples: int, burn_in: int
    ) -> TupleBlock:
        """Tuple-at-a-time estimation of ``Δ(base)``.

        Runs one chain: ``burn_in`` discarded sweeps, then ``num_samples``
        recorded sweeps; the empirical joint over the missing attributes is
        smoothed and wrapped in a :class:`TupleBlock`.
        """
        chain = self.chain(base)
        chain.run_burn_in(burn_in)
        samples = [chain.step() for _ in range(num_samples)]
        dist = samples_to_distribution(self.schema, base, samples)
        return TupleBlock(base, dist)


class GibbsChain:
    """One Markov chain for one incomplete tuple."""

    def __init__(self, sampler: GibbsSampler, base: RelTuple):
        if base.is_complete:
            raise ValueError("Gibbs sampling requires an incomplete tuple")
        self.sampler = sampler
        self.base = base
        self.missing = base.missing_positions
        self.state = base.codes.copy()
        schema = sampler.schema
        # "Start with a valid random assignment of attribute values."
        for attr in self.missing:
            self.state[attr] = sampler.rng.integers(schema[attr].cardinality)

    def sweep(self) -> None:
        """One ordered cycle: resample every missing attribute in turn."""
        sampler = self.sampler
        for attr in self.missing:
            probs = sampler.conditional_probs(self.state, attr)
            self.state[attr] = sampler.rng.choice(probs.size, p=probs)
            sampler.steps += 1

    def step(self) -> tuple[int, ...]:
        """One sweep, returning the missing-attribute codes as a sample."""
        self.sweep()
        return tuple(int(self.state[attr]) for attr in self.missing)

    def run_burn_in(self, burn_in: int) -> None:
        """Discard ``burn_in`` sweeps (``DoSampleDiscard`` in Algorithm 3)."""
        for _ in range(burn_in):
            self.sweep()


#: Sweeps of uniforms an ensemble draws from each segment's generator at
#: once (the last block is cut to the run's remaining sweeps).  Bounds the
#: block at ``UNIFORM_BLOCK_SWEEPS * rows_per_sweep`` doubles.
UNIFORM_BLOCK_SWEEPS = 16


def _trace_dtype(cardinalities: Sequence[int]) -> np.dtype:
    """The narrowest signed integer dtype holding every code below the
    largest cardinality."""
    top = max(cardinalities) - 1
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _column_draw(
    columns: np.ndarray,
    slots: np.ndarray,
    u: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse-CDF draws over CDF columns: ``Generator.choice``'s search.

    ``columns[j]`` is column ``j`` of CDF rows whose last entry is exactly
    1.0 (:func:`~repro.core.engine._cdf_rows` divides each row by its own
    last cumsum), every column but that last one; ``slots`` picks each
    draw's row.  The count ``sum_j (columns[j, slot] <= u)`` is
    ``searchsorted(cdf[slot], u, side="right")`` because the skipped last
    column never counts: ``Generator.random`` is below 1.  A slot past
    every row — a signature the memo lacks — raises ``IndexError`` before
    anything is written.  The counts are reduced straight into ``out``
    when given (a rank step's column of the rank-state matrix).
    """
    return np.add.reduce(columns.take(slots, axis=1) <= u, axis=0, out=out)


def _address(array: np.ndarray, dtype) -> int:
    """The data address of ``array``, which the compiled loop reads as a
    C-contiguous buffer of ``dtype``."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(
            f"the compiled sweep loop needs a C-contiguous {np.dtype(dtype)} "
            f"buffer, got {array.dtype}"
        )
    return array.ctypes.data


#: What pads a narrower attribute's CDF columns in :class:`_RankTables`:
#: above every uniform, so padding never counts in a draw.
_PAD = 2.0


class _RankTables:
    """Every step attribute's memo, concatenated for the rank steps.

    ``index`` concatenates the memos' dense key -> slot indexes, attribute
    ``i``'s at key offset ``sum(space_j for j < i)``, its slots shifted to
    attribute ``i``'s rows of ``columns``: the memos' CDF columns but the
    last, side by side, narrower cardinalities padded with :data:`_PAD`.
    An absent key keeps slot :data:`~repro.core.engine._ABSENT`, so a draw
    from it raises ``IndexError``; ``columns`` is at least one column wide,
    so that holds for cardinality-1 attributes too.  Built when a run
    starts and after a closure fill: a fused run changes no memo.
    ``loop_args`` are the compiled loop's arguments for them: the index's
    address and size, the columns' address and shape.
    """

    __slots__ = ("index", "columns", "loop_args")

    def __init__(self, memos: list):
        spaces = [memo.index.size for memo in memos]
        rows = np.cumsum([0] + [memo.size for memo in memos])
        index = np.concatenate([memo.index for memo in memos])
        shifted = index + np.repeat(rows[:-1], spaces)
        self.index = np.where(index == _ABSENT, _ABSENT, shifted).astype(
            np.int64, copy=False
        )
        width = max(2, *(memo.cdfs.shape[1] for memo in memos)) - 1
        self.columns = np.full((width, rows[-1]), _PAD)
        for memo, lo, hi in zip(memos, rows, rows[1:]):
            self.columns[: memo.cdfs.shape[1] - 1, lo:hi] = memo.cdfs[: hi - lo, :-1].T
        self.loop_args = (
            _address(self.index, np.int64), self.index.size,
            _address(self.columns, np.float64), *self.columns.shape,
        )


class GibbsEnsemble:
    """Lock-step vectorized Gibbs chains over segments of incomplete tuples.

    ``segments`` is a sequence of ``(bases, rng)`` pairs: each segment's
    distinct tuples are served by its own generator (a ``Generator`` or a
    seed).  ``chains`` rows per base tuple, segments in order, run in lock
    step.  A sweep resamples every row's missing attributes in ascending
    position order — the same per-tuple order the scalar chain uses.  A
    row's draws read only that row's state, so rows need not move in step
    attribute by attribute: a sweep is at most ``max(num_missing)`` *rank
    steps*, step ``j`` drawing, in every row of every segment at once,
    that row's ``j``-th missing attribute.

    The chains' state is the *rank-state* matrix: one int64 row per chain,
    deepest missing first, so the rows rank step ``j`` draws in (those
    missing more than ``j`` attributes) are a prefix.  A row holds its
    missing values in rank order, zero-padded, then a constant 1.  Rank
    step ``j``'s keys are one ``np.vecdot`` of that prefix against a
    per-rank multiplier matrix: each row's own attribute memo's ``mult``
    at its missing attributes, and, in the constant column, its observed
    attributes' share of the key plus the attribute's offset into one
    concatenated dense index (built once per ensemble from the memos'
    ``mult`` and index sizes, which a memo reset keeps).  The keys are
    looked up in that index and :func:`_column_draw` reduces the draws
    from one table of every attribute memo's CDF columns
    (:class:`_RankTables`, built when a run starts and after a closure
    fill) straight into column ``j``: five NumPy calls per rank
    step.  It needs every step attribute's memo live with a dense index,
    and every row's signature in it.  Where the compiled loop of
    :mod:`repro.core.native` loads, one call of it runs a whole uniform
    block's fused steps instead, with the same integer arithmetic and
    float compares, so it draws the same integers; the NumPy steps stay
    its fallback and reference.

    A run sweeps fused until a step cannot — a signature some memo lacks,
    whose slot lies past every row so the draw raises ``IndexError``
    before anything is written, or no live dense memos (a cold engine,
    sorted-key signature spaces) — and from that step on takes one route
    to its end.  At the ensemble's first such step the whole CPD closure
    is filled (:meth:`_fill_closure`), and the run stays fused: no step
    misses after it.  Where the closure declines, was decided by an
    earlier run, or leaves no dense tables live, every remaining step runs
    through the engine (:meth:`_engine_step`): its rows' full-width codes
    are rebuilt from their observed codes and the rank state, and each
    attribute the step draws gets one
    :meth:`~repro.core.engine.BatchInferenceEngine.conditional_probs_batch`
    call for its rows, which fills that memo's misses.  No earlier step is
    redrawn.  A CPD is a function of its signature, so both routes draw
    the same integers; every batch the engine computes, every memo insert
    and reset, and every counter is the engine route's, a fused step
    counting what its calls would for batches their memos hold whole.

    Every segment consumes its own generator exactly as if it ran alone:
    first the initial ``integers`` draws (tuple-major, missing-position
    minor), then per sweep one ``random(n)`` per attribute it misses, in
    ascending attribute order, ``n`` being its rows missing that
    attribute.  Uniforms are drawn in blocks of up to
    :data:`UNIFORM_BLOCK_SWEEPS` sweeps per segment
    (``Generator.random(a + b)`` yields ``random(a)`` then ``random(b)``),
    each with ``random(out=...)`` into the segment's own region of one
    buffer allocated with the ensemble; no block reaches past the run's
    last sweep.  Rank position ``p`` (rank-major, rank-state rows
    ascending) reads its uniform of block sweep ``s`` at ``_ubase[p] + s *
    _ustep[p]``, so the compiled loop reads the block in place, and the
    NumPy and engine steps gather only their own step's uniforms.  So a
    fused segment's samples are bit-identical to the same segment run as a
    one-segment ensemble.

    The inverse-CDF lookup reproduces ``Generator.choice(card, p=probs)``
    exactly (same cumulative normalization, same ``side='right'`` search),
    so a one-tuple, one-chain ensemble emits bit-identical samples to
    :class:`GibbsChain` under the same seed.  Multi-tuple or multi-chain
    segments interleave draws differently — different, equally admissible
    sample sets, as with the shard runtime's per-segment reseeding.

    :meth:`trace` records only each row's missing cells, in
    :attr:`trace_dtype` (the narrowest integer type holding the missing
    attributes' codes): a ``(sweeps, cells)`` trace whose columns are
    grouped by missing pattern (:attr:`patterns`); :meth:`run` cuts it
    into per-tuple samples.  :meth:`counts` keeps no trace: each recorded
    sweep's samples are added into per-pattern histograms as it completes.
    """

    def __init__(
        self,
        sampler: GibbsSampler,
        segments: "Sequence[tuple[Sequence[RelTuple], np.random.Generator | int | None]]",
        chains: int = 1,
    ):
        if sampler._engine is None:
            raise ValueError(
                "the vectorized ensemble requires engine='compiled'; "
                "the naive engine stays on the scalar GibbsChain path"
            )
        if chains < 1:
            raise ValueError("chains must be positive")
        segments = [(list(bases), rng) for bases, rng in segments]
        if not segments or not all(bases for bases, _ in segments):
            raise ValueError("need at least one tuple")
        bases = [base for segment, _ in segments for base in segment]
        schema = sampler.schema
        width = len(schema)
        codes = np.concatenate([b.codes for b in bases]).reshape(len(bases), width)
        absent = codes == MISSING_CODE
        # The first base that is complete or repeats an earlier one raises.
        first, inverse = unique_rows(codes)
        repeated = first[inverse] != np.arange(len(bases))
        complete = ~absent.any(axis=1)
        bad = np.flatnonzero(complete | repeated)
        if bad.size and complete[bad[0]]:
            raise ValueError("Gibbs sampling requires incomplete tuples")
        if bad.size:
            raise ValueError(
                "ensemble tuples must be distinct (duplicates share "
                "one block; dedupe before building the ensemble)"
            )
        self.sampler = sampler
        self.bases = bases
        self.chains = k = chains
        states = np.repeat(codes, k, axis=0)
        missing = np.repeat(absent, k, axis=0)
        attrs = np.flatnonzero(absent.any(axis=0)).tolist()
        #: sweep order: ascending attribute position, as in the scalar chain
        self.attrs = tuple(attrs)
        # "Start with a valid random assignment of attribute values" —
        # per segment one draw of ``k`` integers per (tuple, attribute),
        # tuple-major, missing-position-minor.  One ``integers`` call with
        # the bounds repeated draws the same integers, and leaves the same
        # generator state, as one call per (tuple, attribute); identical
        # to the scalar chain's stream for one tuple with one chain.
        cardinalities = schema.cardinalities
        cards = np.array(cardinalities)
        generators = []
        lo = 0
        for segment, rng in segments:
            if not isinstance(rng, np.random.Generator):
                rng = np.random.default_rng(rng)
            generators.append(rng)
            hi = lo + len(segment) * k
            tup, attr = np.nonzero(missing[lo:hi:k])
            draws = rng.integers(np.repeat(cards[attr], k)).reshape(-1, k)
            states[(lo + tup * k)[:, None] + np.arange(k), attr[:, None]] = draws
            lo = hi
        # Every missing cell, attribute-major, rows ascending (hence
        # segment-major): each segment draws its own cells in (attribute,
        # row) order.
        cell_attr, cell_row = np.nonzero(missing.T)
        self._per_sweep = cell_attr.size
        # Rank-state rows, deepest first (a stable sort): ``pos[r]`` is
        # row ``r``'s.  Rank order is rank-major, rank-state rows
        # ascending, so rank step ``j``'s rows are one range of positions.
        depth = missing.sum(axis=1)
        order = np.argsort(-depth, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        ranks = int(depth[order[0]])
        rank = (np.cumsum(missing, axis=1) - 1)[cell_row, cell_attr]
        segment_of = np.repeat(
            np.arange(len(segments)), [len(b) * k for b, _ in segments]
        )[cell_row]
        # Uniforms: one buffer, each segment's block in its own region of
        # ``block`` sweeps at ``block`` times the draws per sweep of the
        # segments before it, sweep-major, each sweep in the segment's own
        # (attribute, row) draw order.  ``_ubase[p] + sweep * _ustep[p]``
        # is rank position ``p``'s uniform in block sweep ``sweep``.
        self._block = block = UNIFORM_BLOCK_SWEEPS
        per_segment = np.bincount(segment_of)
        segment_lo = np.cumsum(per_segment) - per_segment
        #: per segment, its generator, region start and draws per sweep
        self._draws = list(
            zip(generators, (block * segment_lo).tolist(), per_segment.tolist())
        )
        self._uniform_block = np.empty(block * self._per_sweep)
        # Each cell's draw in the segments' sweeps concatenated, read in
        # rank order, moved to its segment's region.
        drawn = np.lexsort((cell_row, cell_attr, segment_of))
        in_rank_order = np.lexsort((pos[cell_row], rank))
        draw = np.empty_like(drawn)
        draw[drawn] = np.arange(drawn.size)
        segment = segment_of[in_rank_order]
        self._ubase = draw[in_rank_order] + (block - 1) * segment_lo[segment]
        self._ustep = per_segment[segment]
        self._rank_state = np.zeros((len(order), ranks + 1), dtype=np.int64)
        self._rank_state[:, ranks] = 1
        self._rank_flat = self._rank_state.reshape(-1)
        self._rank_flat.put(
            pos[cell_row] * (ranks + 1) + rank, states[cell_row, cell_attr]
        )
        # Each rank-state row's missing attributes in rank order, padded
        # with ``width``, and its observed codes (missing ones zero) plus a
        # spare zero column ``width``: what the rank steps' multipliers
        # are built from, and what an engine step rebuilds full-width code
        # rows from.  Per rank step its row count.
        self._rank_attrs = np.full((len(order), ranks), width, dtype=np.intp)
        self._rank_attrs.reshape(-1)[pos[cell_row] * ranks + rank] = cell_attr
        self._observed = np.zeros((len(order), width + 1), dtype=np.int64)
        self._observed[:, :width] = np.where(missing, 0, states)[order]
        self._rank_rows = [int(np.count_nonzero(depth > j)) for j in range(ranks)]
        #: rank step ``j``'s rows of the stacked multipliers and rank
        #: positions: ``_rank_lo[j]`` to ``_rank_lo[j + 1]``
        self._rank_lo = np.cumsum([0] + self._rank_rows, dtype=np.int64)
        #: every rank step's multipliers, one buffer for the compiled loop
        #: (filled by :meth:`_build_rank_steps`)
        self._weights = np.empty((self._per_sweep, ranks + 1), dtype=np.int64)
        #: one step's slots, for the compiled loop
        self._slots = np.empty(self._rank_rows[0], dtype=np.int64)
        self._rank_steps: list[tuple] | None = None
        #: whether the CPD closure was filled (``True``) or declined
        #: (``False``); ``None`` until the first rank step that misses
        self._closure: bool | None = None
        #: each missing pattern's ``(missing, members, lo)``: the missing
        #: positions, the indices of the bases missing them (ascending),
        #: and the first trace column of their block, where each member
        #: has ``chains * len(missing)`` contiguous columns, chain-major;
        #: patterns in the order their first base comes
        seen, inverse = unique_rows(absent.view(np.int8))
        number = np.empty_like(seen)
        number[np.argsort(seen)] = np.arange(seen.size)
        pattern_of = number[inverse]
        grouped = np.argsort(pattern_of, kind="stable")
        sizes = np.bincount(pattern_of).tolist()
        masks = absent[grouped[np.cumsum([0] + sizes[:-1])]].tolist()
        members = grouped.tolist()
        self.patterns = []
        #: each pattern's outcome space: the product of its cardinalities
        self._spaces = []
        lo = at = 0
        for size, mask in zip(sizes, masks):
            positions = tuple(i for i, hole in enumerate(mask) if hole)
            self.patterns.append((positions, members[at : at + size], lo))
            self._spaces.append(prod(cardinalities[i] for i in positions))
            at += size
            lo += size * k * len(positions)
        # Each row's missing cells in rank order, rows in pattern order.
        rows = (grouped[:, None] * k + np.arange(k)).reshape(-1)
        ends = np.cumsum(depth[rows])
        start = pos[rows] * (ranks + 1) - (ends - depth[rows])
        #: recorded cells: their positions in the flattened rank state
        self._cells = np.repeat(start, depth[rows]) + np.arange(ends[-1])
        self.trace_dtype = _trace_dtype([cardinalities[attr] for attr in attrs])

    def __len__(self) -> int:
        """Total chains (rows of the rank state)."""
        return self._rank_state.shape[0]

    @property
    def cells(self) -> int:
        """Trace cells recorded per sweep: the missing cells of all rows."""
        return self._cells.size

    def _draw(self, sweeps: int) -> None:
        """Each segment's next ``sweeps`` sweeps of uniforms into its
        region of the uniform block, in segment order."""
        for rng, lo, n in self._draws:
            rng.random(out=self._uniform_block[lo : lo + sweeps * n])

    def _uniforms(self, sweep: int, lo: int, hi: int) -> np.ndarray:
        """Block sweep ``sweep``'s uniforms of rank positions ``lo`` to
        ``hi``, gathered from the uniform block."""
        at = self._ubase[lo:hi] + sweep * self._ustep[lo:hi]
        return self._uniform_block.take(at)

    def _build_rank_steps(self, memos: list) -> list[tuple]:
        """Rank step ``j``'s rank-state rows, multiplier matrix and draw
        column.

        A row's multipliers are its own attribute memo's ``mult`` at the
        row's missing attributes (zero at the attribute itself, which no
        signature holds), and in the constant column the observed
        attributes' share of its key plus the attribute's offset into
        :attr:`_RankTables.index`.  A memo reset keeps ``mult`` and the
        index size (the engine packs each attribute one way), so these
        hold for every memo the engine serves the ensemble.
        """
        width = len(self.sampler.schema)
        spaces = [memo.index.size for memo in memos]
        offsets = np.cumsum([0] + spaces[:-1])
        mults = np.zeros((len(memos), width + 1), dtype=np.int64)
        mults[:, :width] = np.stack([memo.mult for memo in memos])
        ranks = self._rank_state.shape[1] - 1
        steps = []
        for j, n in enumerate(self._rank_rows):
            step = np.searchsorted(self.attrs, self._rank_attrs[:n, j])
            mult = mults[step]
            weights = self._weights[self._rank_lo[j] : self._rank_lo[j + 1]]
            weights[:, :ranks] = np.take_along_axis(
                mult, self._rank_attrs[:n], axis=1
            )
            weights[:, ranks] = np.vecdot(self._observed[:n], mult)
            weights[:, ranks] += offsets[step]
            rows = self._rank_state[:n]
            steps.append((rows, weights, rows[:, j]))
        return steps

    def _live_tables(self) -> _RankTables | None:
        """Rank tables over the engine's live memos, ``None`` while some
        step attribute has no live memo with a dense index."""
        sampler = self.sampler
        live = sampler._engine.live_memo
        choice, scheme = sampler.v_choice, sampler.v_scheme
        memos = [live(attr, choice, scheme) for attr in self.attrs]
        if any(memo is None or memo.index is None for memo in memos):
            return None
        if self._rank_steps is None:
            self._rank_steps = self._build_rank_steps(memos)
        return _RankTables(memos)

    def _run(self, fused, record, sweeps: int, row0: int) -> None:
        """``sweeps`` sweeps, block sweep ``s`` of the run recorded as sweep
        ``row0 + s`` (burn-in sweeps below zero are not recorded), one
        uniform block of up to ``_block`` sweeps at a time."""
        tables = self._live_tables()
        done = 0
        while done < sweeps:
            block = min(self._block, sweeps - done)
            self._draw(block)
            tables = self._run_block(
                fused, record, tables, block, row0 + done, sweeps - done
            )
            done += block

    def _run_block(
        self, fused, record, tables: _RankTables | None, sweeps: int,
        row0: int, remaining: int,
    ) -> _RankTables | None:
        """Every sweep of the uniform block on the run's route, ``remaining``
        sweeps of the run left, this block's included; returns the tables
        the run's next block sweeps fused on, ``None`` once the run is on
        the engine route.

        Position ``at`` is rank step ``at % ranks`` of block sweep
        ``at // ranks``; block sweep ``s`` is recorded as sweep ``row0 +
        s``.  ``fused`` (from :meth:`_fused`: the compiled loop or
        :meth:`_numpy_steps`) runs fused steps from ``at`` until one cannot
        run, records the sweeps they complete, and returns its position,
        ``-(position + 1)`` when a key is out of the index's range.  A
        sweep an engine step completes is recorded by ``record(row)``,
        which ignores negative rows.  The counters of the fused steps are
        kept here, for both.
        """
        engine = self.sampler._engine
        ranks = len(self._rank_rows)
        stop = sweeps * ranks
        at = 0
        while True:
            if tables is not None:
                reached = fused(tables, at, stop, row0)
                bad_key = reached < 0
                if bad_key:
                    reached = -reached - 1
                # What the engine step's calls count for batches their
                # memos hold whole.
                served = self._rows_before(reached) - self._rows_before(at)
                engine.tuples_served += served
                engine.memo_hits += served
                completed = reached // ranks - at // ranks
                self.sampler.steps += self._per_sweep * completed
                at = reached
                if bad_key:
                    self._raise_key_error(tables, at % ranks)
                if at == stop:
                    return tables
            if self._closure is not None:
                break
            # The ensemble's first step that misses.
            left = remaining * self._per_sweep - self._rows_before(at)
            tables = self._live_tables() if self._fill_closure(left) else None
        while at < stop:
            sweep, j = divmod(at, ranks)
            lo, hi = self._rank_lo[j], self._rank_lo[j + 1]
            self._engine_step(j, self._uniforms(sweep, lo, hi))
            at += 1
            if j == ranks - 1:
                record(row0 + sweep)
                self.sampler.steps += self._per_sweep
        return None

    def _rows_before(self, at: int) -> int:
        """Rows the rank steps before position ``at`` draw in."""
        sweeps, j = divmod(at, len(self._rank_rows))
        return sweeps * self._per_sweep + int(self._rank_lo[j])

    def _raise_key_error(self, tables: _RankTables, j: int) -> None:
        """Raise the ``IndexError`` of rank step ``j``'s index lookup."""
        rows, weights, _ = self._rank_steps[j]
        keys = np.vecdot(rows, weights)
        tables.index.take(keys)
        raise IndexError(f"key {keys.min()} is out of bounds for the rank index")

    def _numpy_steps(
        self, record, tables: _RankTables, at: int, stop: int, row0: int
    ) -> int:
        """Fused rank steps in NumPy (see :meth:`_run_block`): the
        reference the compiled loop equals, and its fallback."""
        ranks = len(self._rank_rows)
        while at < stop:
            sweep, j = divmod(at, ranks)
            rows, weights, drawn = self._rank_steps[j]
            try:
                slots = tables.index.take(np.vecdot(rows, weights))
            except IndexError:
                return -at - 1
            u = self._uniforms(sweep, self._rank_lo[j], self._rank_lo[j + 1])
            try:
                _column_draw(tables.columns, slots, u, drawn)
            except IndexError:
                return at  # a signature some memo lacks: past every row
            at += 1
            if j == ranks - 1:
                record(row0 + sweep)
        return at

    def _fused(self, record, sink: tuple):
        """A run's fused steps: :meth:`_numpy_steps` as one call of the
        compiled loop, recording into ``sink`` (its trace, itemsize,
        counts, strides, sample bounds, sample count, bases and last
        recorded sweep arguments); where the loop does not load,
        :meth:`_numpy_steps` itself, recording through ``record``.  The
        ensemble's own buffers are allocated once, so their addresses are
        read here, once per run, as the tables' are once per build."""
        loop = native.rank_sweeps()
        if loop is None:
            return partial(self._numpy_steps, record)
        own = (
            _address(self._rank_state, np.int64), self._rank_state.shape[1],
            len(self._rank_rows), _address(self._rank_lo, np.int64),
            _address(self._weights, np.int64),
        )
        uniforms = _address(self._uniform_block, np.float64)
        layout = (
            _address(self._ubase, np.int64), _address(self._ustep, np.int64),
            _address(self._cells, np.int64), self._cells.size,
        )
        slots = _address(self._slots, np.int64)

        def steps(tables: _RankTables, at: int, stop: int, row0: int) -> int:
            return loop(
                *own, *tables.loop_args, uniforms, at, stop, *layout, row0,
                *sink, slots,
            )

        return steps

    def _step_codes(self, j: int) -> np.ndarray:
        """Rank step ``j``'s rows as full-width code rows, plus the spare
        column."""
        n = self._rank_rows[j]
        codes = self._observed[:n].copy()
        # Missing codes into place; padding ranks land in the spare column.
        np.put_along_axis(
            codes, self._rank_attrs[:n], self._rank_state[:n, :-1], axis=1
        )
        return codes

    def _fill_closure(self, left: int) -> bool:
        """Fill the CPD closure, at the ensemble's first rank step that
        misses, and report whether it did.

        Step attribute ``a``'s closure is every state a chain can ask
        ``a``'s CPD about: per distinct base row missing ``a``, its
        observed codes with every assignment of its other missing
        attributes.  Only ``a``'s signature attributes need to vary, and
        rows agreeing on their observed signature codes are enumerated
        once, per missing pattern.  The fill is one
        :meth:`~repro.core.engine.BatchInferenceEngine.fill` batch per
        attribute, after which the run never misses.  It is decided once
        per ensemble, and declines — the run's remaining steps then fill
        their own misses through the engine — where some step attribute's
        signatures do not pack into a dense index (no fused step could
        read them), where the closure has more states than the run's
        ``left`` draws (counted before any state is built), or where the
        engine declines it (no room within its ``cache_size``).
        """
        sampler = self.sampler
        engine = sampler._engine
        choice, scheme = sampler.v_choice, sampler.v_scheme
        if not all(engine.packs_dense(a) for a in self.attrs):
            self._closure = False
            return False
        cards = sampler.schema.cardinalities
        # Per (pattern, attribute): the members, and the attribute's
        # signature columns they miss (varied) and observe (fixed).
        plan = []
        for missing, members, _ in self.patterns:
            for a in missing:
                signature = engine.compiled[a].signature_attrs.tolist()
                vary = [b for b in signature if b in missing]
                fixed = [b for b in signature if b not in missing]
                plan.append((a, members, vary, fixed))
        size = sum(
            len(members) * prod(cards[b] for b in vary)
            for _, members, vary, _ in plan
        )
        if size > left:
            self._closure = False
            return False
        codes = np.stack([base.codes for base in self.bases])
        states: dict[int, list[np.ndarray]] = {}
        for a, members, vary, fixed in plan:
            rows = codes[members]
            rows = rows[unique_rows(rows[:, fixed])[0]]
            dims = [cards[b] for b in vary]
            grid = np.indices(dims).reshape(len(dims), prod(dims)).T
            block = np.repeat(rows, grid.shape[0], axis=0)
            block[:, vary] = np.tile(grid, (rows.shape[0], 1))
            states.setdefault(a, []).append(block)
        batches = [(a, np.concatenate(blocks)) for a, blocks in states.items()]
        self._closure = engine.fill(batches, choice, scheme)
        return self._closure

    @cached_property
    def _step_attrs(self) -> list[list[tuple[int, np.ndarray]]]:
        """Per rank step, each attribute it draws with the prefix rows
        drawing it: built on the engine route's first step."""
        return [
            [
                (attr, np.flatnonzero(self._rank_attrs[:n, j] == attr))
                for attr in np.unique(self._rank_attrs[:n, j]).tolist()
            ]
            for j, n in enumerate(self._rank_rows)
        ]

    def _engine_step(self, j: int, uniforms: np.ndarray) -> None:
        """Rank step ``j`` through the engine: per attribute it draws, one
        ``conditional_probs_batch`` call over the rows drawing it, which
        fills the memo's misses."""
        sampler = self.sampler
        codes = self._step_codes(j)
        for attr, rows in self._step_attrs[j]:
            # The engine's cached CDF rows — Generator.choice's
            # cumsum / cdf[-1], computed once per distinct signature.
            cdf = sampler._engine.conditional_probs_batch(
                codes[rows, :-1], attr, sampler.v_choice, sampler.v_scheme,
                cumulative=True,
            )
            # searchsorted(cdf, u, side="right") per row — the exact
            # arithmetic of Generator.choice(n, p=probs).
            self._rank_state[rows, j] = (cdf <= uniforms[rows, None]).sum(axis=1)

    def _sweeps(self, num_samples: int, burn_in: int) -> int:
        """The recorded sweeps of a run, ``ceil(num_samples / chains)``."""
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        return -(-num_samples // self.chains)

    def trace(self, num_samples: int, burn_in: int = 0) -> np.ndarray:
        """Burn in, then record ``ceil(num_samples / chains)`` sweeps.

        Returns the ``(sweeps, cells)`` trace of :attr:`trace_dtype`:
        per sweep every row's missing cells, in :attr:`patterns` order.
        """
        sweeps = self._sweeps(num_samples, burn_in)
        trace = np.empty((sweeps, self.cells), dtype=self.trace_dtype)

        def record(row: int) -> None:
            if row >= 0:
                self._rank_flat.take(self._cells, out=trace[row])

        sink = (
            _address(trace, trace.dtype), trace.itemsize,
            None, None, None, 0, None, -1,
        )
        self._run(self._fused(record, sink), record, burn_in + sweeps, -burn_in)
        return trace

    def counts(
        self, num_samples: int, burn_in: int = 0
    ) -> list[np.ndarray] | None:
        """Burn in, then count ``num_samples`` samples per base tuple.

        Returns one ``(len(members), space)`` int64 histogram per
        :attr:`patterns` entry, ``space`` the product of its missing
        attributes' cardinalities: row ``i`` counts member ``i``'s samples
        (those :meth:`run` returns) at each outcome's row-major rank.  The
        run consumes the same draws as :meth:`run`, but no trace is kept:
        the compiled loop adds each recorded sweep into the histograms, and
        where it does not load, or an engine step completes the sweep,
        one NumPy scatter-add does.  Returns ``None``, drawing nothing,
        when some pattern is sparse (``space`` over
        :data:`MAX_DENSE_OUTCOMES`); :meth:`run` then serves.
        """
        sweeps = self._sweeps(num_samples, burn_in)
        if max(self._spaces) > MAX_DENSE_OUTCOMES:
            return None
        k = self.chains
        sizes = [len(p[1]) * space for p, space in zip(self.patterns, self._spaces)]
        # Per sample (a member's chain, in cell order): its cells' row-major
        # strides, its first cell and its histogram row's first count.
        cardinalities = self.sampler.schema.cardinalities
        strides, widths, firsts = [], [], []
        lo = 0
        for (missing, members, _), space, size in zip(
            self.patterns, self._spaces, sizes
        ):
            dims = [cardinalities[a] for a in missing]
            row = [prod(dims[i + 1 :]) for i in range(len(dims))]
            strides.append(np.tile(np.array(row, dtype=np.int64), len(members) * k))
            widths.append(np.full(len(members) * k, len(dims)))
            firsts.append(np.repeat(np.arange(lo, lo + size, space), k))
            lo += size
        strides = np.concatenate(strides)
        sample_lo = np.concatenate([[0], np.cumsum(np.concatenate(widths))])
        first = np.concatenate(firsts)
        # The last recorded sweep drops the chains past num_samples.
        kept = num_samples - (sweeps - 1) * k
        bases = np.stack([first, np.where(np.arange(first.size) % k < kept, first, -1)])
        counts = np.zeros(lo, dtype=np.int64)

        def record(row: int) -> None:
            # A sweep the NumPy or engine steps completed: the loop's count.
            if row < 0:
                return
            base = bases[int(row == sweeps - 1)]
            keys = self._rank_flat.take(self._cells) * strides
            cells = np.add.reduceat(keys, sample_lo[:-1]) + base
            np.add.at(counts, cells[base >= 0], 1)

        sink = (
            None, 0, _address(counts, np.int64), _address(strides, np.int64),
            _address(sample_lo, np.int64), first.size,
            _address(bases, np.int64), sweeps - 1,
        )
        self._run(self._fused(record, sink), record, burn_in + sweeps, -burn_in)
        return [
            block.reshape(-1, space)
            for block, space in zip(np.split(counts, np.cumsum(sizes)[:-1]), self._spaces)
        ]

    def run(
        self, num_samples: int, burn_in: int = 0
    ) -> list[np.ndarray]:
        """Burn in, then pool ``num_samples`` samples per base tuple.

        Each of the ``ceil(num_samples / chains)`` recorded sweeps
        contributes one sample per chain; per-tuple samples are pooled
        sweep-major, chain-minor and truncated to ``num_samples``.  Returns
        one ``(num_samples, num_missing)`` code matrix of
        :attr:`trace_dtype` per base tuple, in base order (segments
        concatenated) — ready for :func:`samples_to_distribution`.
        """
        trace = self.trace(num_samples, burn_in)
        out: list[np.ndarray] = [None] * len(self.bases)  # type: ignore[list-item]
        for missing, members, lo in self.patterns:
            width = self.chains * len(missing)
            for i in members:
                samples = trace[:, lo : lo + width].reshape(-1, len(missing))
                out[i] = samples[:num_samples]
                lo += width
        return out


def samples_to_distribution(
    schema,
    base: RelTuple,
    samples: "Sequence[tuple[int, ...]] | np.ndarray",
    floor: float = DEFAULT_SMOOTHING_FLOOR,
) -> Distribution:
    """Empirical joint over ``base``'s missing values from chain samples.

    ``samples`` is a sequence of per-sample code tuples (the scalar chain's
    output) or an equivalent ``(n, num_missing)`` code matrix (the
    ensemble's).  Outcomes are tuples of *values* (not codes) in
    missing-position order — the format
    :class:`~repro.probdb.blocks.TupleBlock` expects.  When the full
    outcome space is small enough the distribution covers it entirely
    (zero-count combinations get the smoothing floor), so KL against an
    exact posterior is always finite; otherwise only observed outcomes are
    reported.

    The distributions are bit-identical to the historical Python counting
    loop (same count/total divisions, same outcome order); see
    :func:`samples_to_distributions`.
    """
    return samples_to_distributions(
        schema, base.missing_positions, [samples], floor
    )[0]


#: Dense histogram cells :func:`samples_to_distributions` counts at once;
#: bounds its temporaries at about 2 MB however many tuples share a pattern.
HISTOGRAM_CELLS = 1 << 16


def samples_to_distributions(
    schema,
    missing: Sequence[int],
    samples: "Sequence[Sequence[tuple[int, ...]] | np.ndarray]",
    floor: float = DEFAULT_SMOOTHING_FLOOR,
) -> list[Distribution]:
    """:func:`samples_to_distribution` for tuples missing the same positions.

    One distribution per entry of ``samples``, each equal byte for byte to
    ``samples_to_distribution`` of that entry.  Dense outcome spaces (at
    most :data:`MAX_DENSE_OUTCOMES`) are counted together: every sample is
    packed into its row-major rank within the space — exactly the order
    ``product`` enumerates it in — offset by its entry's number, and one
    ``np.bincount`` per :data:`HISTOGRAM_CELLS` cells counts them all.
    Those distributions come from :meth:`Distribution.stack` and share one
    outcomes tuple.  Sparse spaces report each entry's observed outcomes
    only, in first-occurrence order (the order the historical dict-based
    counting reported them in), one ``np.unique`` per entry.
    """
    domains = [schema[attr].domain for attr in missing]
    dims = tuple(len(d) for d in domains)
    arrays = []
    for entry in samples:
        if len(entry) == 0:
            raise ValueError("need at least one sample")
        arr = np.asarray(entry)
        if arr.ndim != 2 or arr.shape[1] != len(missing):
            raise ValueError(
                f"samples must be (n, {len(missing)}) codes over the missing "
                f"positions, got shape {arr.shape}"
            )
        arrays.append(arr)
    space = prod(dims)
    if space > MAX_DENSE_OUTCOMES:
        return [_sparse_distribution(domains, arr) for arr in arrays]
    outcomes = tuple(product(*domains))
    per_chunk = max(1, HISTOGRAM_CELLS // space)
    dists: list[Distribution] = []
    for lo in range(0, len(arrays), per_chunk):
        chunk = arrays[lo : lo + per_chunk]
        sizes = np.array([arr.shape[0] for arr in chunk])
        codes = np.concatenate(chunk, dtype=np.int64, casting="unsafe")
        packed = np.ravel_multi_index(tuple(codes.T), dims)
        packed += np.repeat(np.arange(len(chunk)) * space, sizes)
        counts = np.bincount(packed, minlength=len(chunk) * space)
        probs = counts.reshape(len(chunk), space) / sizes[:, None]
        dists.extend(Distribution.stack(outcomes, np.maximum(probs, floor)))
    return dists


def histogram_distributions(
    schema,
    missing: Sequence[int],
    counts: np.ndarray,
    num_samples: int,
    floor: float = DEFAULT_SMOOTHING_FLOOR,
) -> list[Distribution]:
    """One distribution per row of the ``(n, space)`` histogram ``counts``
    over a dense outcome space: ``counts / num_samples``, floored, over
    every outcome of ``missing`` in row-major order (the order ``product``
    enumerates them in).  The distributions share one outcomes tuple
    (:meth:`Distribution.stack`)."""
    outcomes = tuple(product(*(schema[attr].domain for attr in missing)))
    return Distribution.stack(outcomes, np.maximum(counts / num_samples, floor))


def _sparse_distribution(domains: list, arr: np.ndarray) -> Distribution:
    """Observed outcomes only, in first-occurrence order."""
    rows, first, counts = np.unique(
        arr.astype(np.int64, copy=False),
        axis=0,
        return_index=True,
        return_counts=True,
    )
    order = np.argsort(first, kind="stable")
    outcomes = [
        tuple(d[int(c)] for d, c in zip(domains, rows[i])) for i in order
    ]
    return Distribution(outcomes, counts[order] / arr.shape[0])


def estimate_joint(
    model: MRSLModel,
    base: RelTuple,
    num_samples: int = 2000,
    burn_in: int = 100,
    v_choice: VoterChoice | str = VoterChoice.BEST,
    v_scheme: VotingScheme | str = VotingScheme.AVERAGED,
    rng: np.random.Generator | int | None = None,
    engine: str = DEFAULT_ENGINE,
) -> TupleBlock:
    """Convenience wrapper: one tuple, one chain, one block."""
    sampler = GibbsSampler(
        model, v_choice=v_choice, v_scheme=v_scheme, rng=rng, engine=engine
    )
    return sampler.estimate(base, num_samples=num_samples, burn_in=burn_in)
