"""Lineage-driven invalidation: which blocks survive a base-table update.

A derived block's lineage is fully determined by *content*: a single-missing
block depends only on its base tuple (the compiled inference path is
deterministic and RNG-free), and a multi-missing block depends on the distinct
tuple set of its Gibbs segment — the segment's content key seeds its RNG, so
two segments with the same key and base seed produce bit-identical blocks,
whatever shard they were fused into.

That makes invalidation a pure set computation, no diffing of ChangeSets
required: rebuild the previous derivation's content→block maps (the
:class:`CarryStore`), lay out the *new* workload exactly as a from-scratch
plan would, and every single-missing tuple or multi segment whose key is
found in the store carries its blocks over verbatim.  Everything else is
dirty and gets re-derived with the seed a from-scratch run would have used —
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

from ..relational.tuples import RelTuple
from .blocks import TupleBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.base import Segment
    from .database import ProbabilisticDatabase

__all__ = ["CarryStore", "DeltaSplit"]


@dataclass(frozen=True)
class DeltaSplit:
    """A new workload split into carried blocks and dirty work.

    ``carried`` maps workload indices to reusable blocks.  ``dirty_single``
    entries re-enter the single-shard packer; each ``dirty_multi`` item is a
    segment ``(segment, entries)`` of the new layout whose key missed the
    store, ready to be seeded and fused into shards.
    ``carried_single`` entries and ``carried_multi`` segments mirror the
    carried side so the runtime can account skipped work honestly.
    """

    carried: dict[int, TupleBlock]
    dirty_single: list[tuple[int, RelTuple]]
    dirty_multi: "list[tuple[Segment, list[tuple[int, RelTuple]]]]"
    carried_single: list[tuple[int, RelTuple]]
    carried_multi: "list[Segment]"

    @property
    def num_carried_tuples(self) -> int:
        return len(self.carried)

    @property
    def num_dirty_tuples(self) -> int:
        return len(self.dirty_single) + sum(
            len(entries) for _, entries in self.dirty_multi
        )


class CarryStore:
    """Content-keyed blocks from a previous derivation, ready for reuse.

    ``singles`` maps each single-missing base tuple to its block;
    ``multi`` maps each previous multi segment's content key to that
    segment's own ``{base tuple: block}`` map.  ``base_seed`` is the seed
    the previous derivation's multi segments were derived under — the delta
    runtime pins new segments to the same seed so the combined result
    equals a from-scratch run.  ``None`` when the previous run had no
    multi-missing work.
    """

    __slots__ = ("singles", "multi", "base_seed")

    def __init__(
        self,
        singles: dict[RelTuple, TupleBlock],
        multi: dict[str, dict[RelTuple, TupleBlock]],
        base_seed: int | None,
    ):
        self.singles = singles
        self.multi = multi
        self.base_seed = base_seed

    @classmethod
    def from_database(
        cls,
        database: "ProbabilisticDatabase",
        base_seed: int | None,
    ) -> "CarryStore":
        """Rebuild the store from a derived database.

        The previous multi workload is recovered from the database's blocks
        (derivation emits blocks in workload order, so the multi bases appear
        in their original relative order) and replayed through the planner's
        :func:`~repro.exec.plan.multi_shard_layout` to recover the segment
        content keys.
        """
        from ..exec.plan import multi_shard_layout

        singles: dict[RelTuple, TupleBlock] = {}
        multi_blocks: list[TupleBlock] = []
        for block in database.blocks:
            if block.base.num_missing == 1:
                singles.setdefault(block.base, block)
            else:
                multi_blocks.append(block)
        multi: dict[str, dict[RelTuple, TupleBlock]] = {}
        if multi_blocks:
            entries = [(i, b.base) for i, b in enumerate(multi_blocks)]
            for segment, batch in multi_shard_layout(entries):
                multi[segment.key] = {
                    multi_blocks[i].base: multi_blocks[i] for i, _ in batch
                }
        return cls(singles=singles, multi=multi, base_seed=base_seed)

    @classmethod
    def from_shards(
        cls,
        records: "Sequence[tuple[str, str, Sequence[TupleBlock]]]",
        base_seed: int | None,
    ) -> "CarryStore":
        """Rebuild the store from journaled shard results.

        ``records`` are ``(key, kind, blocks)`` rows as a durable job store
        journals them — the completed shards of an interrupted run.  Single
        shards contribute per-base blocks (packing is irrelevant: singles
        are content-addressed by base tuple); multi rows are journaled one
        per segment under its content key, which a resumed plan of the same
        workload reproduces.  ``base_seed`` must be the interrupted run's
        journaled base seed so the still-dirty segments re-derive under the
        same seed.
        """
        singles: dict[RelTuple, TupleBlock] = {}
        multi: dict[str, dict[RelTuple, TupleBlock]] = {}
        for key, kind, blocks in records:
            if kind == "single":
                for block in blocks:
                    singles.setdefault(block.base, block)
            else:
                multi[key] = {block.base: block for block in blocks}
        return cls(singles=singles, multi=multi, base_seed=base_seed)

    def split(self, tuples: Sequence[RelTuple]) -> DeltaSplit:
        """Split the new workload into carried blocks and dirty shards.

        ``tuples`` is the full new workload in canonical order (singles then
        multis, each in relation order — exactly what a from-scratch derive
        would plan).  The new multi layout is computed here so dirty multi
        segments keep the keys — hence the seeds — a from-scratch plan would
        assign them.
        """
        from ..exec.plan import multi_shard_layout

        single: list[tuple[int, RelTuple]] = []
        multi: list[tuple[int, RelTuple]] = []
        for idx, t in enumerate(tuples):
            if t.is_complete:
                raise ValueError("complete tuples do not belong in the workload")
            (single if t.num_missing == 1 else multi).append((idx, t))

        carried: dict[int, TupleBlock] = {}
        dirty_single: list[tuple[int, RelTuple]] = []
        carried_single: list[tuple[int, RelTuple]] = []
        for idx, t in single:
            block = self.singles.get(t)
            if block is None:
                dirty_single.append((idx, t))
            else:
                # Re-root the block on this workload entry; duplicates of one
                # content share the distribution, as in a from-scratch run.
                # The stored block passed TupleBlock's checks for a tuple
                # equal to t, so re-rooting need not repeat them.
                carried[idx] = TupleBlock._trusted(t, block.distribution)
                carried_single.append((idx, t))

        dirty_multi: list[tuple[Segment, list[tuple[int, RelTuple]]]] = []
        carried_multi: list[Segment] = []
        for segment, batch in multi_shard_layout(multi):
            blocks = self.multi.get(segment.key)
            if blocks is None:
                dirty_multi.append((segment, batch))
            else:
                for idx, t in batch:
                    carried[idx] = TupleBlock._trusted(t, blocks[t].distribution)
                carried_multi.append(segment)

        return DeltaSplit(
            carried=carried,
            dirty_single=dirty_single,
            dirty_multi=dirty_multi,
            carried_single=carried_single,
            carried_multi=carried_multi,
        )
