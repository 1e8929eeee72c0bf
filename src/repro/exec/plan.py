"""The shard planner: partition a derivation workload into independent units.

A block is a function of its row's content, so the planner works on the
workload's *distinct* rows: a :class:`Workload` numbers them once (one
``np.unique`` over the code matrix, first-occurrence order) and keeps
each workload row's distinct number.  Shards hold distinct rows and their
code matrix; row counts (``len(shard)``, ``ShardPlan.num_tuples``) still
count every copy.

Two partitioning rules, one per inference regime:

* **Single-missing tuples** (Algorithm 2) are grouped by ``(head attribute,
  evidence signature)`` — the same key the compiled engine memoizes CPDs
  under — so every group in a shard is answered by one matrix combine and
  the per-worker CPD memo stays hot.  Grouping runs on the distinct code
  matrix: per attribute, one :func:`unique_rows` over the signature
  columns numbers the groups in key order (their bytes' memcmp order).  Groups, weighed by
  the workload rows they cover, are packed into a
  bounded number of shards (greedy largest-first into the least-loaded
  bin) sized to the worker count; packing cannot affect results because
  this path is deterministic and RNG-free.

* **Multi-missing tuples** (Algorithm 3) are laid out in two levels.

  *Segments* are the seed unit.  Distinct rows are ordered by connected
  component of the subsumption graph, then by first occurrence, and cut
  into consecutive runs of
  :data:`MULTI_TUPLES_PER_SHARD`: small components pack together and
  oversized ones split (the ensemble kernel shares nothing across tuples,
  so components are pure grouping hints).  Each segment gets an RNG seed
  derived from the base seed and its content key.  Segment layout, keys
  and seeds depend only on the workload, the constant and the base seed —
  never on the worker count — and segments are also the unit of
  carry-over, journaling and delta invalidation.

  *Shards* are the execution unit.  Consecutive segments are grouped into
  at most ``min(workers, #segments)`` fused shards balanced by distinct
  tuples (and capped at :data:`MULTI_TUPLES_PER_ENSEMBLE` distinct
  tuples), each run as one lock-step ensemble in which every segment still
  consumes its own seeded generator exactly as if it ran alone.  So the
  grouping may follow the worker count, but results never do.

A delta re-derive runs through the same planner: :func:`plan_shards`
takes a previous run's carry store, which splits the workload's distinct
rows into carried and dirty, and packs, seeds and fuses only the dirty
ones.  Without a store every row is dirty.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.engine import unique_rows
from ..probdb.invalidate import DeltaSplit
from ..relational.tuples import MISSING_CODE, RelTuple, trusted_rows
from .base import DEFAULT_WORKERS, Segment, Shard, ShardPlan, validate_workers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mrsl import MRSLModel
    from ..probdb.invalidate import CarryStore
    from ..relational.schema import Schema

__all__ = [
    "Workload",
    "MULTI_TUPLES_PER_ENSEMBLE",
    "MULTI_TUPLES_PER_SHARD",
    "build_multi_shards",
    "build_single_shards",
    "multi_layout",
    "multi_shard_layout",
    "plan_shards",
    "resolve_base_seed",
    "shard_seed",
]

#: Distinct tuples per multi segment: the seed unit.  Read at call time (so
#: tests may patch it), and deliberately *not* worker-dependent so segment
#: seeds never change with the executor or pool size.
MULTI_TUPLES_PER_SHARD = 128

#: Distinct tuples one fused multi shard may hold.  A fused ensemble's
#: state, sample trace and uniform blocks grow with it, so this bounds a
#: shard's memory however few workers run the plan.
MULTI_TUPLES_PER_ENSEMBLE = 1024


def resolve_base_seed(
    rng: np.random.Generator | int | None, seed: int | None
) -> int:
    """The one integer every per-segment seed derives from.

    Explicit ``rng`` wins over the config ``seed``; a live generator
    contributes a single draw (so reproducibility with a seeded generator is
    preserved while the plan itself stays worker-count independent); with
    neither, fresh entropy keeps the historical "unseeded run" behavior.
    """
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**63))
    if rng is not None:
        return int(rng)
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy % (2**63))


def shard_seed(base_seed: int, key: str) -> int:
    """Deterministic per-segment seed: hash of the base seed and its key.

    ``sha256`` rather than Python's builtin ``hash`` so the value is stable
    across interpreter runs, processes, and platforms.
    """
    digest = hashlib.sha256(f"{base_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _content_key(rows: np.ndarray, counts: np.ndarray | None = None) -> str:
    """A stable key for a bag of int32 code rows, independent of order.

    ``rows`` are distinct and ``counts`` (default: one each) says how often
    each occurs.  The key is the sha256 of the bag's rows in sorted order,
    each repeated by its count: :func:`unique_rows` sorts rows in memcmp
    order, the order of ``sorted(row.tobytes() for row in bag)``.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    first, _ = unique_rows(rows)
    ordered = rows[first]
    if counts is not None:
        ordered = np.repeat(ordered, counts[first], axis=0)
    return hashlib.sha256(ordered.tobytes()).hexdigest()[:16]


def _first_occurrence(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of ``codes`` in order of first occurrence.

    Returns ``(first, rows)``: each distinct row's first position, and each
    row's distinct number.  One ``np.unique`` replaces hashing and
    comparing ``RelTuple`` objects: over one mixed-radix int64 key per row
    (digit ``code + 1``) when the rows' value space fits in 62 bits, over a
    void view of the rows (:func:`unique_rows`) otherwise.  The numbering
    follows first occurrence, so it does not depend on the key's order.
    """
    radix = codes.max(axis=0, initial=MISSING_CODE).astype(np.int64) + 2
    if codes.shape[1] and np.prod(radix.astype(np.float64)) < 2.0**62:
        mult = np.cumprod(np.concatenate([[1], radix[:-1]]))
        keys = (codes.astype(np.int64) + 1) @ mult
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        first, inverse = unique_rows(codes)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


@dataclass(frozen=True, eq=False)
class Workload:
    """A derivation workload, numbered by distinct row.

    A block depends on its row's content alone, so everything from the
    planner to the collector handles each distinct row once.  ``codes``
    holds the distinct rows in order of first occurrence (read-only
    int32), ``tuples`` one :class:`~repro.relational.tuples.RelTuple` per
    distinct row, and ``rows`` each workload row's distinct number;
    ``counts`` and ``missing`` are each distinct row's occurrences and
    missing attributes.  ``bases`` is the caller's tuple list when the
    workload was built from one (:meth:`from_tuples`): its blocks are then
    rooted at those very tuples.
    """

    codes: np.ndarray
    tuples: "tuple[RelTuple, ...]"
    rows: np.ndarray
    counts: np.ndarray
    missing: np.ndarray
    bases: "Sequence[RelTuple] | None" = None

    @classmethod
    def _build(cls, codes, first, rows, tuples, bases) -> "Workload":
        missing = (codes == MISSING_CODE).sum(axis=1)
        if (missing == 0).any():
            raise ValueError("complete tuples do not belong in the workload")
        return cls(
            codes=codes,
            tuples=tuples,
            rows=rows,
            counts=np.bincount(rows, minlength=first.size),
            missing=missing,
            bases=bases,
        )

    @classmethod
    def from_codes(cls, schema: "Schema", codes: np.ndarray) -> "Workload":
        """The workload of a validated code matrix (a relation's rows):
        one trusted row view per distinct row."""
        first, rows = _first_occurrence(codes)
        distinct = np.ascontiguousarray(codes[first], dtype=np.int32)
        distinct.setflags(write=False)
        return cls._build(
            distinct, first, rows, tuple(trusted_rows(schema, distinct)), None
        )

    @classmethod
    def from_tuples(cls, tuples: "Sequence[RelTuple]") -> "Workload":
        """The workload of a tuple list; each distinct row is represented
        by its first occurrence."""
        tuples = list(tuples)
        if not tuples:
            empty = np.empty(0, dtype=np.intp)
            codes = np.empty((0, 0), dtype=np.int32)
            return cls(codes, (), empty, empty, empty, tuples)
        stacked = np.stack([t.codes for t in tuples])
        first, rows = _first_occurrence(stacked)
        distinct = stacked[first]
        distinct.setflags(write=False)
        return cls._build(
            distinct, first, rows, tuple(tuples[i] for i in first.tolist()), tuples
        )

    def __len__(self) -> int:
        return self.rows.size


def _as_workload(tuples: "Workload | Sequence[RelTuple]") -> Workload:
    return tuples if isinstance(tuples, Workload) else Workload.from_tuples(tuples)


#: Most equal-sized groups :func:`_pack_largest_first` places in one step.
_PACK_RUN = 4096


def _pack_largest_first(sizes: np.ndarray, num_bins: int) -> np.ndarray:
    """Greedy largest-first packing: each group's bin.

    Groups are taken largest first (ties: lower group first), each into
    the bin of least ``(load, bin)`` at that moment.  A run of ``m``
    equal-sized groups is placed at once: bin ``b`` takes its ``j``-th
    group of the run at load ``load[b] + j * size``, so the run's groups
    go, in order, to the ``m`` least ``(load, bin)`` tickets — the
    placements one group at a time through a heap of bin loads makes.
    """
    bin_of = np.empty(sizes.size, dtype=np.intp)
    loads = np.zeros(num_bins, dtype=np.int64)
    bins = np.arange(num_bins)
    largest_first = np.argsort(-sizes, kind="stable")
    ordered = sizes[largest_first]
    # Runs of equal sizes, cut into pieces of at most _PACK_RUN groups (a
    # piece of a run is a run) to bound the (bins, m) ticket matrix.
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] + 1))
    starts = np.union1d(starts, np.arange(0, ordered.size, _PACK_RUN))
    ends = np.append(starts[1:], ordered.size)
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        size, m = int(ordered[lo]), hi - lo
        tickets = loads[:, None] + size * np.arange(m)
        owner = np.broadcast_to(bins[:, None], tickets.shape)
        chosen = owner.ravel()[np.lexsort((owner.ravel(), tickets.ravel()))[:m]]
        bin_of[largest_first[lo:hi]] = chosen
        loads += size * np.bincount(chosen, minlength=num_bins)
    return bin_of


def build_single_shards(
    workload: Workload,
    ids: Sequence[int],
    model: "MRSLModel",
    workers: int,
) -> list[Shard]:
    """Group single-missing distinct rows by signature and pack them.

    ``ids`` are distinct-row numbers of ``workload``, ascending.  One
    :func:`unique_rows` over each row's head attribute and its codes on
    that attribute's signature columns (the others blanked) numbers the
    ``(attribute, evidence signature)`` groups in key order (attributes
    ascending, signatures in memcmp order); a group weighs the workload
    rows it covers.  Groups are packed largest first (ties: lower
    key first) into the least-loaded of at most ``workers`` bins (ties:
    lower bin first), so the packing is deterministic for a given
    workload.  One shard per worker: a single shard is a few milliseconds
    of work, less than a further shard's round trip to a pool worker costs,
    so splitting finer buys no balance.  A shard lists
    its distinct rows in workload order and is keyed by its bin and the
    bag of its workload rows.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if not ids.size:
        return []
    codes = workload.codes[ids]
    counts = workload.counts[ids]
    attrs = (codes == MISSING_CODE).argmax(axis=1)
    # Each row's head attribute, then its codes with every column outside
    # that attribute's signature blanked: one numbering, attribute-major,
    # signatures in memcmp order within an attribute.
    signature = np.zeros((codes.shape[1], codes.shape[1]), dtype=bool)
    for attr in np.unique(attrs).tolist():
        signature[attr, model.compiled[attr].signature_attrs] = True
    keyed = np.where(signature[attrs], codes, MISSING_CODE)
    first, group = unique_rows(np.column_stack([attrs.astype(np.int32), keyed]))
    num_groups = first.size
    sizes = np.bincount(group, weights=counts, minlength=num_groups).astype(np.int64)

    num_bins = min(num_groups, workers)
    bin_of = _pack_largest_first(sizes, num_bins)
    bin_groups = np.bincount(bin_of, minlength=num_bins)

    row_bin = bin_of[group]
    order = np.argsort(row_bin, kind="stable")
    cuts = np.cumsum(np.bincount(row_bin, minlength=num_bins))[:-1]
    shards = []
    for b, members in enumerate(np.split(order, cuts)):
        member_ids = ids[members].tolist()
        member_codes = codes[members]
        member_codes.setflags(write=False)
        shards.append(
            Shard(
                key=f"single:{b:03d}:{_content_key(member_codes, counts[members])}",
                kind="single",
                indices=tuple(member_ids),
                tuples=tuple(workload.tuples[i] for i in member_ids),
                groups=int(bin_groups[b]),
                rows=int(counts[members].sum()),
                codes=member_codes,
            )
        )
    return shards


#: Row-block size for the pairwise subsumption test; bounds the temporary
#: ``(block, n, width)`` comparison at a few MB for realistic workloads.
_SUBSUME_BLOCK = 256


def _component_roots(codes: np.ndarray) -> np.ndarray:
    """Each distinct tuple's subsumption-component root (its smallest row).

    Still quadratic in the number of *distinct* multi-missing tuples, but
    the pairwise test (Def. 2.4: every known value of ``a`` appears in
    ``b``, and ``a`` knows strictly less) is a blocked bitmask test over
    the known values instead of Python-level ``proper_subsumes`` calls,
    and components are found by min-label propagation over the edges —
    planning a thousands-of-tuples workload costs milliseconds, not
    seconds.
    """
    n = codes.shape[0]
    known = codes != MISSING_CODE
    num_known = known.sum(axis=1)
    # One bit per (position, value) a row knows, packed into uint64 words:
    # a's known values all appear in b exactly when a's bits are a subset
    # of b's.
    offsets = np.concatenate([[0], np.cumsum(codes.max(axis=0) + 1)])
    rows, cols = np.nonzero(known)
    onehot = np.zeros((n, -(-int(offsets[-1]) // 64) * 64), dtype=bool)
    onehot[rows, offsets[cols] + codes[rows, cols]] = True
    words = np.packbits(onehot, axis=1).view(np.uint64)
    sources, targets = [], []
    for start in range(0, n, _SUBSUME_BLOCK):
        stop = min(start + _SUBSUME_BLOCK, n)
        subset = np.ones((stop - start, n), dtype=bool)
        for k in range(words.shape[1]):
            subset &= (words[start:stop, None, k] & ~words[None, :, k]) == 0
        x, j = np.nonzero(
            subset & (num_known[start:stop, None] < num_known[None, :])
        )
        sources.append(x + start)
        targets.append(j)
    src, dst = np.concatenate(sources), np.concatenate(targets)
    # Labels only fall, and always name a row of the same component; the
    # component's smallest row keeps its own, so at the fixed point (every
    # edge's ends agree) each row is labelled with that smallest row.
    roots = np.arange(n)
    while not (roots[src] == roots[dst]).all():
        low = np.minimum(roots[src], roots[dst])
        np.minimum.at(roots, src, low)
        np.minimum.at(roots, dst, low)
        roots = roots[roots]
    return roots


def multi_shard_layout(
    codes: np.ndarray, counts: np.ndarray | None = None
) -> list[tuple[Segment, np.ndarray]]:
    """The deterministic multi-missing segment layout.

    This is the single source of truth for how multi-missing workloads map
    to seeded :class:`~repro.exec.base.Segment` units and their content
    keys; :func:`plan_shards` builds its multi shards from it, a carry
    store splits the new workload by it, and
    :meth:`~repro.probdb.invalidate.CarryStore.from_database` replays it
    over a derived database's blocks.  ``codes`` are the
    workload's distinct multi-missing rows in order of first occurrence,
    and ``counts`` how many workload rows repeat each (default one; it sets
    :attr:`Segment.size` only).  Returns ``(segment, members)`` pairs,
    ``members`` the segment's row numbers in ``codes``, ascending; segments
    carry no seed.

    Rows are grouped by connected component of the subsumption graph,
    components ordered by their first row.  The rows, in component order
    then first-occurrence order, are cut into consecutive runs of
    :data:`MULTI_TUPLES_PER_SHARD` — small components pack together and a
    larger one splits.  Duplicates of one row are that row, so they always
    share a segment (and a block).  The layout depends only on the
    distinct rows, their order and that constant, never on the worker
    count.
    """
    if not codes.shape[0]:
        return []
    if counts is None:
        counts = np.ones(codes.shape[0], dtype=np.intp)
    roots = _component_roots(codes)
    sequence = np.lexsort((np.arange(roots.size), roots))
    segment_of = np.empty_like(sequence)
    segment_of[sequence] = np.arange(sequence.size) // MULTI_TUPLES_PER_SHARD
    order = np.argsort(segment_of, kind="stable")
    cuts = np.flatnonzero(np.diff(segment_of[order])) + 1
    layout = []
    for members in np.split(order, cuts):
        key = f"multi:{_content_key(codes[members])}"
        segment = Segment(key, int(counts[members].sum()), members.size)
        layout.append((segment, members))
    return layout


def _fused_runs(distinct: Sequence[int], workers: int) -> list[int]:
    """How many consecutive segments each fused multi shard takes.

    At most ``min(workers, len(distinct))`` shards, balanced by distinct
    tuples: the smallest per-shard load whose greedy consecutive packing
    needs no more shards than that, lowered to
    :data:`MULTI_TUPLES_PER_ENSEMBLE` when it exceeds the cap (which adds
    shards; a segment larger than the cap runs alone).
    """
    if not distinct:
        return []

    def packing(limit: int) -> list[int]:
        runs: list[int] = []
        load = 0
        for d in distinct:
            if runs and load + d <= limit:
                runs[-1] += 1
                load += d
            else:
                runs.append(1)
                load = d
        return runs

    shards = min(workers, len(distinct))
    lo, hi = max(distinct), sum(distinct)
    while lo < hi:
        mid = (lo + hi) // 2
        if len(packing(mid)) <= shards:
            hi = mid
        else:
            lo = mid + 1
    return packing(min(lo, MULTI_TUPLES_PER_ENSEMBLE))


def build_multi_shards(
    workload: Workload,
    layout: Sequence[tuple[Segment, np.ndarray]],
    base_seed: int,
    workers: int,
) -> list[Shard]:
    """Seed a segment layout and fuse it into multi shards.

    ``layout`` pairs each segment with its distinct-row numbers in
    ``workload``.  Consecutive segments are grouped by :func:`_fused_runs`.
    A shard's key is its first segment's key, suffixed with the number of
    segments fused after it.
    """
    runs = _fused_runs([segment.distinct for segment, _ in layout], workers)
    shards = []
    start = 0
    for run in runs:
        group = layout[start : start + run]
        start += run
        segments = tuple(
            replace(segment, seed=shard_seed(base_seed, segment.key))
            for segment, _ in group
        )
        ids = np.concatenate([members for _, members in group])
        codes = workload.codes[ids]
        codes.setflags(write=False)
        ids = ids.tolist()
        key = segments[0].key
        if len(segments) > 1:
            key = f"{key}+{len(segments) - 1}"
        shards.append(
            Shard(
                key=key,
                kind="multi",
                indices=tuple(ids),
                tuples=tuple(workload.tuples[i] for i in ids),
                groups=sum(segment.distinct for segment in segments),
                segments=segments,
                rows=sum(segment.size for segment in segments),
                codes=codes,
            )
        )
    return shards


def plan_shards(
    tuples: "Workload | Sequence[RelTuple]",
    model: "MRSLModel",
    workers: int = DEFAULT_WORKERS,
    seed: int | None = None,
    rng: np.random.Generator | int | None = None,
    carry: "CarryStore | None" = None,
) -> ShardPlan:
    """Partition a workload (mixed single- and multi-missing) into shards.

    ``tuples`` is a :class:`Workload` or a tuple list (numbered here).
    Shards hold distinct rows; ``num_tuples`` and each shard's ``len``
    count workload rows.  The returned plan is deterministic given the
    workload, the model, ``workers`` and ``carry``.  Its multi *segments*
    (keys and seeds, see :func:`multi_shard_layout`) never depend on
    ``workers``; only how they fuse into at most ``min(workers,
    #segments)`` shards does (see :func:`build_multi_shards`).  The base
    seed is ``carry.base_seed`` when the store has one, else resolved (see
    :func:`resolve_base_seed`), and only when the workload actually
    contains multi-missing tuples, so RNG-free workloads never consume
    entropy or disturb a caller's generator.

    ``carry``, a previous run's
    :class:`~repro.probdb.invalidate.CarryStore`, splits the workload:
    only its dirty rows are planned, and the carried work goes onto the
    plan's ``carried`` (singles packed like dirty ones, a one-segment
    shard per segment) with its blocks.  ``None`` carries nothing and
    looks nothing up.
    """
    workers = validate_workers(workers)
    workload = _as_workload(tuples)
    if carry is None:
        multi = np.flatnonzero(workload.missing > 1)
        single = np.flatnonzero(workload.missing == 1)
        layout = multi_layout(workload, multi)
        split = DeltaSplit(workload, {}, single, layout, [], [], layout)
    else:
        split = carry.split(workload)

    shards = build_single_shards(workload, split.dirty_single, model, workers)
    carried = build_single_shards(workload, split.carried_single, model, workers)

    base_seed: int | None = None
    if split.dirty_multi or split.carried_multi:
        pinned = None if carry is None else carry.base_seed
        base_seed = resolve_base_seed(rng, seed) if pinned is None else pinned
        shards.extend(
            build_multi_shards(workload, split.dirty_multi, base_seed, workers)
        )
        for segment in split.carried_multi:  # one report row per segment
            carried.extend(build_multi_shards(workload, [segment], base_seed, 1))
    return ShardPlan(
        shards=tuple(shards),
        num_tuples=len(workload) - sum(len(shard) for shard in carried),
        base_seed=base_seed,
        carried=tuple(carried),
        carried_blocks=split.carried,
        layout=tuple(split.layout),
    )


def multi_layout(
    workload: Workload, multi: np.ndarray
) -> list[tuple[Segment, np.ndarray]]:
    """:func:`multi_shard_layout` over the distinct rows ``multi`` of
    ``workload``, with members as workload distinct-row numbers."""
    layout = multi_shard_layout(workload.codes[multi], workload.counts[multi])
    return [(segment, multi[members]) for segment, members in layout]
