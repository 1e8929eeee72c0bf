"""The Relation: a bag of complete and incomplete tuples over one schema.

Section II views the input relation ``R`` as two disjoint subsets: the
complete part ``Rc`` (the *points*) and the incomplete part ``Ri``.  This
module provides that split, plus vectorized support counting (Def. 2.3) on
the complete part, which is the primitive both Apriori mining and meta-rule
estimation are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .schema import Schema, SchemaError
from .tuples import MISSING, MISSING_CODE, RelTuple, trusted_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .updates import CellConflict, ChangeSet

__all__ = ["Relation", "ApplyOutcome", "LogEntry"]


@dataclass(frozen=True)
class ApplyOutcome:
    """What :meth:`Relation.apply_changeset` did, for invalidation and audit.

    Row indices refer to the relation *before* the ChangeSet was applied,
    except ``inserted_at`` which indexes the post-apply relation.  The
    ``*_before``/``*_after`` tuples carry the touched row contents so
    downstream caches can evict by tuple identity without re-diffing.
    """

    updated: tuple[int, ...]
    retracted: tuple[int, ...]
    inserted_at: tuple[int, ...]
    updated_before: tuple[RelTuple, ...]
    updated_after: tuple[RelTuple, ...]
    retracted_tuples: tuple[RelTuple, ...]
    inserted_tuples: tuple[RelTuple, ...]
    conflicts: tuple["CellConflict", ...]

    @property
    def num_touched(self) -> int:
        """Distinct pre-existing rows modified or removed, plus inserts."""
        return len(self.updated) + len(self.retracted) + len(self.inserted_tuples)

    @property
    def ties(self) -> tuple["CellConflict", ...]:
        """Conflicts trust could not separate (reported, never dropped)."""
        return tuple(c for c in self.conflicts if c.tie)

    def touched_tuples(self) -> tuple[RelTuple, ...]:
        """Old contents of every updated or retracted row (for cache eviction)."""
        return self.updated_before + self.retracted_tuples

    def to_dict(self) -> dict:
        return {
            "updated": list(self.updated),
            "retracted": list(self.retracted),
            "inserted_at": list(self.inserted_at),
            "conflicts": [c.to_dict() for c in self.conflicts],
            "ties": len(self.ties),
        }


@dataclass(frozen=True)
class LogEntry:
    """One append-only update-log record: the ChangeSet and its outcome."""

    changeset: "ChangeSet"
    outcome: ApplyOutcome


class Relation:
    """A relation over a :class:`~repro.relational.schema.Schema`.

    Tuples are stored as an ``(n, k)`` int32 code matrix with
    :data:`~repro.relational.tuples.MISSING_CODE` marking missing values.
    """

    def __init__(self, schema: Schema, tuples: Iterable[RelTuple] = ()):
        self.schema = schema
        rows = []
        for t in tuples:
            if t.schema != schema:
                raise SchemaError("tuple schema does not match relation schema")
            rows.append(t.codes)
        if rows:
            self._codes = np.vstack(rows).astype(np.int32)
        else:
            self._codes = np.empty((0, len(schema)), dtype=np.int32)
        self._update_log: list[LogEntry] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def from_codes(cls, schema: Schema, codes: np.ndarray) -> "Relation":
        """Wrap an existing ``(n, k)`` integer code matrix (copied).

        Codes must be :data:`~repro.relational.tuples.MISSING_CODE` or lie
        within each attribute's cardinality.
        """
        arr = np.asarray(codes, dtype=np.int32)
        if arr.ndim != 2 or arr.shape[1] != len(schema):
            raise SchemaError(
                f"code matrix of shape {arr.shape} does not fit a "
                f"{len(schema)}-attribute schema"
            )
        for col, attr in enumerate(schema):
            column = arr[:, col]
            bad = (column != MISSING_CODE) & (
                (column < 0) | (column >= attr.cardinality)
            )
            if bad.any():
                raise SchemaError(
                    f"column {attr.name!r} holds code "
                    f"{int(column[bad][0])}, outside [0, {attr.cardinality})"
                )
        rel = cls(schema)
        rel._codes = arr.copy()
        return rel

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Mapping[str, Hashable] | Sequence[Hashable]],
    ) -> "Relation":
        """Build a relation from dict-like or positional value rows."""
        return cls(schema, (RelTuple.from_values(schema, row) for row in rows))

    # -- basic accessors ------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """The raw ``(n, k)`` code matrix (read-only view)."""
        view = self._codes.view()
        view.setflags(write=False)
        return view

    def __len__(self) -> int:
        return self._codes.shape[0]

    def __iter__(self) -> Iterator[RelTuple]:
        # Every constructor and apply_changeset validate the matrix, so rows
        # skip RelTuple's per-cell check; they are read-only views of it.
        return trusted_rows(self.schema, self.codes)

    def __getitem__(self, index: int) -> RelTuple:
        return RelTuple(self.schema, self._codes[index])

    def append(self, t: RelTuple) -> None:
        """Append one tuple."""
        if t.schema != self.schema:
            raise SchemaError("tuple schema does not match relation schema")
        self._codes = np.vstack([self._codes, t.codes[None, :]])

    def extend(self, tuples: Iterable[RelTuple]) -> None:
        """Append many tuples."""
        rows = []
        for t in tuples:
            if t.schema != self.schema:
                raise SchemaError("tuple schema does not match relation schema")
            rows.append(t.codes)
        if rows:
            self._codes = np.vstack([self._codes, np.vstack(rows)])

    # -- updates (ChangeSet application) -------------------------------------

    @property
    def update_log(self) -> tuple[LogEntry, ...]:
        """Append-only history of every ChangeSet applied to this relation."""
        return tuple(self._update_log)

    def copy(self) -> "Relation":
        """An independent copy sharing nothing mutable (log included)."""
        rel = Relation.from_codes(self.schema, self._codes)
        rel._update_log = list(self._update_log)
        return rel

    def apply_changeset(
        self, changeset: "ChangeSet", trust: Sequence[str] = ()
    ) -> ApplyOutcome:
        """Apply a :class:`~repro.relational.updates.ChangeSet` in place.

        Conflicting writes to the same cell are resolved by the ``trust``
        ordering (earlier source ids are trusted more); unresolvable ties are
        applied first-writer-wins and *reported* in the returned outcome.
        Application order is updates, then retractions, then insertions; all
        op indices address rows of this relation before the call.  The
        ChangeSet and its outcome are appended to :attr:`update_log`.
        """
        from .updates import ChangeSet

        if not isinstance(changeset, ChangeSet):
            changeset = ChangeSet.from_dict(changeset)
        changeset.validate_against(len(self), len(self.schema))
        assignments, retracted, conflicts = changeset.resolve(trust)

        codes = self._codes.copy()
        updated_idx: list[int] = []
        updated_before: list[RelTuple] = []
        updated_after: list[RelTuple] = []
        for index in sorted(assignments):
            # Copy row codes: RelTuple wraps the array it is given, and the
            # in-place writes below must not retroactively mutate `before`.
            before = RelTuple(self.schema, codes[index].copy())
            for attr, value in assignments[index].items():
                pos = self.schema.index(attr)
                if value == MISSING:
                    codes[index, pos] = MISSING_CODE
                else:
                    codes[index, pos] = self.schema[pos].code(value)
            after = RelTuple(self.schema, codes[index].copy())
            if after != before:
                updated_idx.append(index)
                updated_before.append(before)
                updated_after.append(after)

        retracted_idx = sorted(retracted)
        retracted_tuples = tuple(
            RelTuple(self.schema, codes[i].copy()) for i in retracted_idx
        )
        keep = np.ones(codes.shape[0], dtype=bool)
        keep[retracted_idx] = False
        codes = codes[keep]

        inserted_tuples = tuple(
            RelTuple.from_values(self.schema, op.row)
            for op in changeset.by_kind("insert")
        )
        inserted_at = tuple(
            range(codes.shape[0], codes.shape[0] + len(inserted_tuples))
        )
        if inserted_tuples:
            codes = np.vstack([codes, np.vstack([t.codes for t in inserted_tuples])])

        self._codes = codes.astype(np.int32)
        outcome = ApplyOutcome(
            updated=tuple(updated_idx),
            retracted=tuple(retracted_idx),
            inserted_at=inserted_at,
            updated_before=tuple(updated_before),
            updated_after=tuple(updated_after),
            retracted_tuples=retracted_tuples,
            inserted_tuples=inserted_tuples,
            conflicts=conflicts,
        )
        self._update_log.append(LogEntry(changeset=changeset, outcome=outcome))
        return outcome

    # -- complete / incomplete split (Section II) ----------------------------

    def complete_mask(self) -> np.ndarray:
        """Boolean mask of rows that are points (no missing values)."""
        return (self._codes != MISSING_CODE).all(axis=1)

    def complete_part(self) -> "Relation":
        """``Rc``: the sub-relation of complete tuples."""
        return Relation.from_codes(self.schema, self._codes[self.complete_mask()])

    def incomplete_part(self) -> "Relation":
        """``Ri``: the sub-relation of incomplete tuples."""
        return Relation.from_codes(self.schema, self._codes[~self.complete_mask()])

    @property
    def num_complete(self) -> int:
        return int(self.complete_mask().sum())

    @property
    def num_incomplete(self) -> int:
        return len(self) - self.num_complete

    # -- support (Def. 2.3) ----------------------------------------------------

    def count_matches(self, t: RelTuple) -> int:
        """Number of points in this relation that match ``t``.

        Incomplete rows in the relation never match (only points support a
        tuple per Def. 2.3); call on :meth:`complete_part` output, or rely on
        the internal complete-row mask applied here.
        """
        mask = self.complete_mask() & t.match_mask(self._codes)
        return int(mask.sum())

    def support(self, t: RelTuple) -> float:
        """Fraction of points in the relation matching ``t`` (Def. 2.3)."""
        n = self.num_complete
        if n == 0:
            return 0.0
        return self.count_matches(t) / n

    # -- relational operators ------------------------------------------------------

    def select(self, predicate) -> "Relation":
        """Rows satisfying ``predicate`` (a ``RelTuple -> bool`` callable)."""
        keep = [i for i, t in enumerate(self) if predicate(t)]
        return Relation.from_codes(self.schema, self._codes[keep])

    def project(self, names: Sequence[str]) -> "Relation":
        """Projection (bag semantics) onto the named attributes."""
        positions = [self.schema.index(name) for name in names]
        sub_schema = Schema(self.schema[p] for p in positions)
        return Relation.from_codes(sub_schema, self._codes[:, positions])

    def distinct(self) -> "Relation":
        """Duplicate elimination (set semantics), preserving first-seen order."""
        seen = set()
        keep = []
        for i, row in enumerate(self._codes):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return Relation.from_codes(self.schema, self._codes[keep])

    # -- misc -------------------------------------------------------------------

    def split(self, fraction: float, rng: np.random.Generator) -> tuple["Relation", "Relation"]:
        """Random row split: returns ``(first, second)`` with ``first`` holding
        a ``fraction`` share of the rows.

        Used by the experimental framework for the 90/10 train/test split.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be strictly between 0 and 1")
        n = len(self)
        perm = rng.permutation(n)
        cut = int(round(n * fraction))
        first = Relation.from_codes(self.schema, self._codes[perm[:cut]])
        second = Relation.from_codes(self.schema, self._codes[perm[cut:]])
        return first, second

    def __repr__(self) -> str:
        return (
            f"Relation({len(self)} tuples: {self.num_complete} complete, "
            f"{self.num_incomplete} incomplete, schema={self.schema.names})"
        )
