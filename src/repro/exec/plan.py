"""The shard planner: partition a derivation workload into independent units.

Two partitioning rules, one per inference regime:

* **Single-missing tuples** (Algorithm 2) are grouped by ``(head attribute,
  evidence signature)`` — the same key the compiled engine memoizes CPDs
  under — so every group in a shard is answered by one matrix combine and
  the per-worker CPD memo stays hot.  Grouping runs on the stacked code matrix:
  per attribute, one ``np.unique`` over a void view of the signature
  columns numbers the groups in key order.  Groups are packed into a
  bounded number of shards (greedy largest-first, through a heap of bin
  loads) sized to the worker count; packing cannot affect results because
  this path is deterministic and RNG-free.

* **Multi-missing tuples** (Algorithm 3) are laid out in two levels.

  *Segments* are the seed unit.  Tuples are ordered by connected
  component of the subsumption graph, then by first occurrence, and their
  distinct rows are cut into consecutive runs of
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
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.compiled import CompiledModel
from ..core.engine import unique_rows
from ..relational.tuples import MISSING_CODE, RelTuple
from .base import DEFAULT_WORKERS, Segment, Shard, ShardPlan, validate_workers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mrsl import MRSLModel

__all__ = [
    "MULTI_TUPLES_PER_ENSEMBLE",
    "MULTI_TUPLES_PER_SHARD",
    "build_multi_shards",
    "build_single_shards",
    "multi_shard_layout",
    "plan_shards",
    "resolve_base_seed",
    "shard_seed",
]

#: Target single shards per worker; >1 smooths load imbalance between
#: unevenly sized signature groups without shrinking groups themselves.
SINGLE_SHARDS_PER_WORKER = 2

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


def _content_key(rows: np.ndarray) -> str:
    """A stable key for a set of int32 code rows, independent of order.

    The sha256 of the rows' bytes in sorted order: a void view sorts rows
    in memcmp order, the order of ``sorted(row.tobytes() for row in rows)``.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    opaque = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return hashlib.sha256(np.sort(opaque, axis=0).tobytes()).hexdigest()[:16]


def build_single_shards(
    entries: Sequence[tuple[int, RelTuple]],
    compiled: CompiledModel,
    workers: int,
) -> list[Shard]:
    """Group single-missing entries by signature and pack them into shards.

    ``entries`` are ``(workload_index, tuple)`` pairs.  Their codes are
    stacked once; per head attribute, one :func:`unique_rows` over the
    signature columns numbers the ``(attribute, evidence signature)``
    groups in key order (attributes ascending, signatures in memcmp
    order).  Groups are packed largest first (ties: lower key first) into
    the least-loaded of at most ``workers * SINGLE_SHARDS_PER_WORKER``
    bins (ties: lower bin first), so the packing is deterministic for a
    given workload.  A shard lists its members in workload order and is
    keyed by its bin and the content of its rows.
    """
    if not entries:
        return []
    codes = np.stack([t.codes for _, t in entries])
    attrs = (codes == MISSING_CODE).argmax(axis=1)
    group = np.empty(len(entries), dtype=np.intp)
    num_groups = 0
    for attr in np.unique(attrs).tolist():
        rows = np.flatnonzero(attrs == attr)
        first, inverse = unique_rows(codes[rows][:, compiled[attr].signature_attrs])
        group[rows] = num_groups + inverse
        num_groups += first.size
    sizes = np.bincount(group, minlength=num_groups)

    num_bins = min(num_groups, workers * SINGLE_SHARDS_PER_WORKER)
    loads = [(0, b) for b in range(num_bins)]  # a heap of (entries, bin)
    bin_of = np.empty(num_groups, dtype=np.intp)
    largest_first = np.argsort(-sizes, kind="stable")
    for g, size in zip(largest_first.tolist(), sizes[largest_first].tolist()):
        load, b = loads[0]
        bin_of[g] = b
        heapq.heapreplace(loads, (load + size, b))
    bin_groups = np.bincount(bin_of, minlength=num_bins)

    indices = np.array([idx for idx, _ in entries])
    entry_bin = bin_of[group]
    order = np.lexsort((indices, entry_bin))
    cuts = np.cumsum(np.bincount(entry_bin, minlength=num_bins))[:-1]
    shards = []
    for b, members in enumerate(np.split(order, cuts)):
        shards.append(
            Shard(
                key=f"single:{b:03d}:{_content_key(codes[members])}",
                kind="single",
                indices=tuple(indices[members].tolist()),
                tuples=tuple(entries[p][1] for p in members.tolist()),
                groups=int(bin_groups[b]),
            )
        )
    return shards


#: Row-block size for the pairwise subsumption test; bounds the temporary
#: ``(block, n, width)`` comparison at a few MB for realistic workloads.
_SUBSUME_BLOCK = 256


def _distinct_codes(
    entries: Sequence[tuple[int, RelTuple]],
) -> tuple[np.ndarray, np.ndarray]:
    """The entries' distinct code rows, in first-occurrence order.

    Returns ``(codes, node)``: one row per distinct tuple, and each entry's
    row number.  One :func:`unique_rows` over the stacked code matrix
    replaces hashing and comparing ``RelTuple`` objects.
    """
    stacked = np.stack([t.codes for _, t in entries])
    first, inverse = unique_rows(stacked)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return stacked[first[order]], rank[inverse]


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
    entries: Sequence[tuple[int, RelTuple]],
) -> list[tuple[Segment, list[tuple[int, RelTuple]]]]:
    """The deterministic multi-missing segment layout.

    This is the single source of truth for how multi-missing workloads map
    to seeded :class:`~repro.exec.base.Segment` units and their content
    keys; :func:`plan_shards` builds its multi shards from it, and the delta
    planner replays it over a *previous* derivation's workload to recover
    the segment keys whose blocks can be carried over.  ``entries`` are
    ``(workload_index, tuple)`` pairs in ascending index order; only their
    relative order matters, so any consistent indexing recovers identical
    keys.  Returns ``(segment, entries)`` pairs; segments carry no seed.

    Tuples are grouped by connected component of the subsumption graph
    (duplicates join their first occurrence), components ordered by their
    first-occurring tuple.  Their distinct tuples, in component order then
    first-occurrence order, are cut into consecutive runs of
    :data:`MULTI_TUPLES_PER_SHARD` — small components pack together and a
    larger one splits.  Duplicate entries of one tuple always land in one
    segment (they share one block).  The layout depends only on the
    workload and that constant, never on the worker count.
    """
    if not entries:
        return []
    codes, node = _distinct_codes(entries)
    roots = _component_roots(codes)
    sequence = np.lexsort((np.arange(roots.size), roots))
    segment_of = np.empty_like(sequence)
    segment_of[sequence] = np.arange(sequence.size) // MULTI_TUPLES_PER_SHARD
    of_entry = segment_of[node]
    order = np.argsort(of_entry, kind="stable")
    cuts = np.flatnonzero(np.diff(of_entry[order])) + 1
    layout = []
    for positions in np.split(order, cuts):
        members = [entries[p] for p in positions.tolist()]
        rows = codes[np.unique(node[positions])]
        key = f"multi:{_content_key(rows)}"
        layout.append((Segment(key, len(members), rows.shape[0]), members))
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
    layout: Sequence[tuple[Segment, Sequence[tuple[int, RelTuple]]]],
    base_seed: int,
    workers: int,
) -> list[Shard]:
    """Seed a segment layout and fuse it into multi shards.

    Consecutive segments are grouped by :func:`_fused_runs`.  A shard's key
    is its first segment's key, suffixed with the number of segments fused
    after it.
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
        members = [entry for _, batch in group for entry in batch]
        key = segments[0].key
        if len(segments) > 1:
            key = f"{key}+{len(segments) - 1}"
        shards.append(
            Shard(
                key=key,
                kind="multi",
                indices=tuple(idx for idx, _ in members),
                tuples=tuple(t for _, t in members),
                groups=sum(segment.distinct for segment in segments),
                segments=segments,
            )
        )
    return shards


def plan_shards(
    tuples: "Sequence[RelTuple]",
    model: "MRSLModel",
    workers: int = DEFAULT_WORKERS,
    seed: int | None = None,
    rng: np.random.Generator | int | None = None,
    compiled: CompiledModel | None = None,
) -> ShardPlan:
    """Partition ``tuples`` (mixed single- and multi-missing) into shards.

    The returned plan is deterministic given the workload, the model and
    ``workers``.  Its multi *segments* (keys and seeds, see
    :func:`multi_shard_layout`) never depend on ``workers``; only how they
    fuse into at most ``min(workers, #segments)`` shards does (see
    :func:`build_multi_shards`).  The base seed is resolved (see
    :func:`resolve_base_seed`) only when the workload actually contains
    multi-missing tuples, so RNG-free workloads never consume entropy or
    disturb a caller's generator.
    """
    workers = validate_workers(workers)
    single: list[tuple[int, RelTuple]] = []
    multi: list[tuple[int, RelTuple]] = []
    for idx, t in enumerate(tuples):
        if t.is_complete:
            raise ValueError("complete tuples do not belong in the workload")
        (single if t.num_missing == 1 else multi).append((idx, t))

    shards: list[Shard] = []
    if single:
        if compiled is None:
            compiled = CompiledModel(model)
        shards.extend(build_single_shards(single, compiled, workers))

    base_seed: int | None = None
    if multi:
        base_seed = resolve_base_seed(rng, seed)
        shards.extend(
            build_multi_shards(multi_shard_layout(multi), base_seed, workers)
        )
    return ShardPlan(
        shards=tuple(shards), num_tuples=len(tuples), base_seed=base_seed
    )
