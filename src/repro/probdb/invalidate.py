"""Lineage-driven invalidation: which blocks survive a base-table update.

A derived block's lineage is fully determined by *content*: a single-missing
block depends only on its base tuple (the compiled inference path is
deterministic and RNG-free), and a multi-missing block depends on the distinct
tuples of its Gibbs segment, in the order they run — the segment's content
key (of the tuple set) seeds its RNG, and the ensemble draws the tuples in
turn, so two segments with the same key, tuple order and base seed produce
bit-identical blocks, whatever shard they were fused into.

That makes invalidation a pure content computation, no diffing of ChangeSets
required: rebuild the previous derivation's content→block maps (the
:class:`CarryStore`), lay out the *new* workload exactly as a from-scratch
plan would, and every distinct single-missing row, and every multi segment
whose key is found in the store with its rows in the same order, carries
its blocks over verbatim.  Everything else is dirty and gets re-derived with the seed a from-scratch run would have used —
so an incremental derivation is bit-identical to a full derivation of the
updated table under the same base seed, for every executor.

Granularity follows the planner: a cell update to a single-missing tuple
dirties exactly that tuple; an update to a multi-missing tuple dirties the
segment holding it (not the whole fused shard the segment ran in).  Inserting or retracting multi-missing tuples can shift
the segment cuts and cascade re-keying to later segments — correct, but
worth knowing when sizing ChangeSets (see ``docs/updates.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..relational.tuples import MISSING_CODE, RelTuple
from .blocks import TupleBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.base import Segment
    from ..exec.plan import Workload
    from .database import ProbabilisticDatabase

__all__ = ["CarryStore", "DeltaSplit", "RunLayout", "SegmentBlocks"]


@dataclass(frozen=True)
class DeltaSplit:
    """A new workload's distinct rows split into carried blocks and dirty work.

    ``carried`` maps distinct-row numbers of ``workload`` to reusable
    blocks.  ``dirty_single`` rows (ascending) re-enter the single-shard
    packer; each ``dirty_multi`` item is a segment ``(segment, rows)`` of
    the new layout whose key missed the store, ready to be seeded and
    fused into shards.  ``carried_single`` rows and ``carried_multi``
    segments (``(segment, rows)`` too) mirror the carried side so the
    planner can account skipped work honestly.  ``layout`` holds every
    segment, dirty or carried, in layout order.  A plan without a store
    splits nothing: every row is dirty.  The tuple counts are workload
    rows, duplicates included.
    """

    workload: "Workload"
    carried: dict[int, TupleBlock]
    dirty_single: Sequence[int]
    dirty_multi: "list[tuple[Segment, np.ndarray]]"
    carried_single: list[int]
    carried_multi: "list[tuple[Segment, np.ndarray]]"
    layout: "list[tuple[Segment, np.ndarray]]"

    @property
    def num_carried_tuples(self) -> int:
        return int(self.workload.counts[list(self.carried)].sum())

    @property
    def num_dirty_tuples(self) -> int:
        return int(self.workload.counts[self.dirty_single].sum()) + sum(
            segment.size for segment, _ in self.dirty_multi
        )


@dataclass(frozen=True, eq=False)
class RunLayout:
    """What one derivation ran, by distinct row of its workload.

    ``codes``, ``missing`` and ``blocks`` hold each distinct row's codes,
    missing-attribute count and block; ``segments`` each multi segment's
    content key and distinct rows, in layout order, and ``multi`` maps
    each key to its :class:`SegmentBlocks`.  The planner already computed
    all of it, so a delta re-derive rebuilds its :class:`CarryStore` from
    it (:meth:`CarryStore.from_layout`) instead of replaying the layout
    over the derived database.
    """

    codes: np.ndarray
    missing: np.ndarray
    blocks: "Sequence[TupleBlock]"
    segments: "Sequence[tuple[str, np.ndarray]]"
    multi: "dict[str, SegmentBlocks]"

    @classmethod
    def of(
        cls,
        codes: np.ndarray,
        missing: np.ndarray,
        blocks: "Sequence[TupleBlock]",
        segments: "Sequence[tuple[str, np.ndarray]]",
    ) -> "RunLayout":
        """The layout of distinct rows ``codes``, given each multi
        segment's key and distinct rows in the order they ran, segments in
        layout order."""
        multi = {
            key: SegmentBlocks(codes[rows], [blocks[i] for i in rows.tolist()])
            for key, rows in segments
        }
        return cls(codes, missing, blocks, segments, multi)


@dataclass(frozen=True, eq=False)
class SegmentBlocks:
    """One multi segment's blocks, in the order its distinct rows ran,
    with those rows' codes stacked in ``codes``: a delta split compares a
    segment's rows as one array, not tuple by tuple."""

    codes: np.ndarray
    blocks: "list[TupleBlock]"

    @classmethod
    def of(cls, blocks: "Sequence[TupleBlock]") -> "SegmentBlocks":
        """The segment of ``blocks`` in run order; copies of a base collapse."""
        blocks = list({block.base: block for block in blocks}.values())
        if not blocks:
            return cls(np.empty((0, 0), dtype=np.int32), blocks)
        return cls(np.stack([block.base.codes for block in blocks]), blocks)


class CarryStore:
    """Content-keyed blocks from a previous derivation, ready for reuse.

    ``singles`` maps each single-missing base tuple to its block;
    ``multi`` maps each previous multi segment's content key to that
    segment's blocks (a :class:`SegmentBlocks`), in the order the
    segment's distinct rows ran.  ``base_seed`` is the
    seed the previous derivation's multi segments were derived under — the
    planner pins new segments to the same seed so the combined
    result equals a from-scratch run.  ``None`` when the previous run had
    no multi-missing work.  ``run`` is the previous run's
    :class:`RunLayout` when the store was built from it: a split whose
    multi rows are that run's reuses its segment layout.
    """

    __slots__ = ("singles", "multi", "base_seed", "run")

    def __init__(
        self,
        singles: dict[RelTuple, TupleBlock],
        multi: "dict[str, SegmentBlocks]",
        base_seed: int | None,
        run: RunLayout | None = None,
    ):
        self.singles = singles
        self.multi = multi
        self.base_seed = base_seed
        self.run = run

    @classmethod
    def from_layout(cls, layout: RunLayout, base_seed: int | None) -> "CarryStore":
        """The store of a derivation's :class:`RunLayout`."""
        blocks = layout.blocks
        singles = {
            blocks[i].base: blocks[i]
            for i in np.flatnonzero(layout.missing == 1).tolist()
        }
        return cls(
            singles=singles, multi=layout.multi, base_seed=base_seed, run=layout
        )

    @classmethod
    def from_database(
        cls,
        database: "ProbabilisticDatabase",
        base_seed: int | None,
    ) -> "CarryStore":
        """Rebuild the store from a derived database alone.

        The previous workload's distinct rows are recovered from the
        database's blocks (derivation emits blocks in workload order, so
        the multi bases appear in their original relative order; copies of
        a row share its block object, and equal bases collapse by content
        too) and the multi rows are replayed through the planner's
        :func:`~repro.exec.plan.multi_shard_layout` to recover the segment
        content keys.  Delta re-derives do not replay: they read the
        :class:`RunLayout` their previous result kept
        (:meth:`from_layout`), and this replay is the reference the tests
        check that store against.
        """
        from ..exec.plan import _first_occurrence, multi_shard_layout

        blocks = list(dict.fromkeys(database.blocks))
        if not blocks:
            return cls(singles={}, multi={}, base_seed=base_seed)
        codes = np.stack([b.base.codes for b in blocks])
        first, _ = _first_occurrence(codes)
        blocks = [blocks[i] for i in first.tolist()]
        codes = codes[first]
        missing = (codes == MISSING_CODE).sum(axis=1)
        multi_rows = np.flatnonzero(missing > 1)
        segments = [
            (segment.key, multi_rows[members])
            for segment, members in multi_shard_layout(codes[multi_rows])
        ]
        return cls.from_layout(
            RunLayout.of(codes, missing, blocks, segments), base_seed
        )

    @classmethod
    def from_shards(
        cls,
        records: "Sequence[tuple[str, str, Sequence[TupleBlock]]]",
        base_seed: int | None,
    ) -> "CarryStore":
        """Rebuild the store from journaled shard results.

        ``records`` are ``(key, kind, blocks)`` rows as a durable job store
        journals them — the completed shards of an interrupted run, one
        block per distinct tuple (journals that hold one block per
        workload row collapse to the same maps).  Single shards contribute
        per-base blocks (packing is irrelevant: singles are
        content-addressed by base tuple); multi rows are journaled one per
        segment under its content key, which a resumed plan of the same
        workload reproduces.  ``base_seed`` must be the interrupted run's
        journaled base seed so the still-dirty segments re-derive under the
        same seed.
        """
        singles: dict[RelTuple, TupleBlock] = {}
        multi: dict[str, SegmentBlocks] = {}
        for key, kind, blocks in records:
            if kind == "single":
                for block in blocks:
                    singles.setdefault(block.base, block)
            else:
                multi[key] = SegmentBlocks.of(blocks)
        return cls(singles=singles, multi=multi, base_seed=base_seed)

    def split(self, tuples: "Workload | Sequence[RelTuple]") -> DeltaSplit:
        """Split the new workload's distinct rows into carried blocks and
        dirty shards.

        ``tuples`` is the full new workload in canonical order (singles then
        multis, each in relation order — exactly what a from-scratch derive
        would plan), as a :class:`~repro.exec.plan.Workload` or a tuple
        list.  The new multi layout is computed here so dirty multi
        segments keep the keys — hence the seeds — a from-scratch plan would
        assign them.
        """
        from ..exec.plan import _as_workload, multi_layout

        workload = _as_workload(tuples)
        carried: dict[int, TupleBlock] = {}
        dirty_single: list[int] = []
        carried_single: list[int] = []
        for i in np.flatnonzero(workload.missing == 1).tolist():
            t = workload.tuples[i]
            block = self.singles.get(t)
            if block is None:
                dirty_single.append(i)
            else:
                # Re-root the block on this workload row; the stored block
                # passed TupleBlock's checks for a tuple equal to t, so
                # re-rooting need not repeat them.
                carried[i] = TupleBlock._trusted(t, block.distribution)
                carried_single.append(i)

        dirty_multi: list[tuple[Segment, np.ndarray]] = []
        carried_multi: list[tuple[Segment, np.ndarray]] = []
        multi = np.flatnonzero(workload.missing > 1)
        layout = self._run_layout(workload, multi)
        if layout is None:
            layout = multi_layout(workload, multi)
        for segment, rows in layout:
            blocks = self.multi.get(segment.key)
            # The key names the segment's set of rows, but the ensemble
            # draws them in turn from one generator: the blocks carry only
            # when the rows also come in the order they ran in.
            if blocks is None or not np.array_equal(blocks.codes, workload.codes[rows]):
                dirty_multi.append((segment, rows))
            else:
                for i, block in zip(rows.tolist(), blocks.blocks):
                    carried[i] = TupleBlock._trusted(
                        workload.tuples[i], block.distribution
                    )
                carried_multi.append((segment, rows))

        return DeltaSplit(
            workload=workload,
            carried=carried,
            dirty_single=dirty_single,
            dirty_multi=dirty_multi,
            carried_single=carried_single,
            carried_multi=carried_multi,
            layout=layout,
        )

    def _run_layout(
        self, workload: "Workload", multi: np.ndarray
    ) -> "list[tuple[Segment, np.ndarray]] | None":
        """The previous run's multi layout over ``workload``'s distinct
        rows ``multi``, when those are the previous run's multi rows in the
        same order: the layout depends on nothing else, so the components
        and content keys need no recomputing.  ``None`` otherwise."""
        from ..exec.base import Segment

        run = self.run
        if run is None:
            return None
        before = np.flatnonzero(run.missing > 1)
        if not np.array_equal(run.codes[before], workload.codes[multi]):
            return None
        moved = np.empty(run.missing.size, dtype=np.intp)
        moved[before] = multi
        counts = workload.counts
        return [
            (Segment(key, int(counts[moved[rows]].sum()), rows.size), moved[rows])
            for key, rows in run.segments
        ]
