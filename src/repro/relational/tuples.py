"""Complete and incomplete tuples, matching and subsumption (Defs 2.1-2.4).

A tuple is an assignment of domain values to attributes of a schema.  An
*incomplete* tuple assigns values to a proper subset of the attributes; the
missing positions carry the sentinel :data:`MISSING` (rendered ``"?"`` as in
the paper).  A *complete* tuple (a "point") assigns a value to every
attribute.

Internally a tuple is a vector of integer codes with :data:`MISSING_CODE` in
the missing positions, which makes matching and support counting vectorizable
with numpy.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .schema import Schema, SchemaError

__all__ = [
    "MISSING",
    "MISSING_CODE",
    "RelTuple",
    "make_tuple",
    "subsumes",
    "proper_subsumes",
]

#: User-facing sentinel for a missing attribute value, as in the paper.
MISSING = "?"

#: Internal integer code for a missing value.
MISSING_CODE = -1


class RelTuple:
    """A (possibly incomplete) tuple over a schema.

    Instances are immutable and hashable; equality is structural on
    ``(schema, codes)``.  The *complete portion* of a tuple is the set of
    positions holding real values (Def. 2.1).
    """

    __slots__ = ("schema", "codes", "_hash", "_missing")

    def __init__(self, schema: Schema, codes: Sequence[int]):
        arr = np.asarray(codes, dtype=np.int32)
        if arr.ndim != 1 or arr.shape[0] != len(schema):
            raise SchemaError(
                f"tuple has {arr.shape} codes for a schema of {len(schema)} attributes"
            )
        missing = []
        for i, code in enumerate(arr):
            if code == MISSING_CODE:
                missing.append(i)
            elif not 0 <= code < schema[i].cardinality:
                raise SchemaError(
                    f"code {int(code)} out of range for attribute {schema[i].name!r}"
                )
        arr.setflags(write=False)
        self.schema = schema
        self.codes = arr
        self._hash = hash((schema, arr.tobytes()))
        # Immutable codes: the planner and kernels ask for these constantly.
        self._missing = tuple(missing)

    @classmethod
    def _trusted(
        cls, schema: Schema, codes: np.ndarray, missing: tuple[int, ...]
    ) -> "RelTuple":
        """Wrap a read-only int32 code row already known to be valid.

        For callers holding a validated code matrix (a
        :class:`~repro.relational.relation.Relation`): skips the per-cell
        range check, and takes the missing positions the caller computed.
        """
        t = cls.__new__(cls)
        t.schema = schema
        t.codes = codes
        t._hash = hash((schema, codes.tobytes()))
        t._missing = missing
        return t

    def __reduce__(self):
        # Rebuild through __init__ rather than restoring slots: the cached
        # ``_hash`` is salted per process (PYTHONHASHSEED), so a pickled
        # hash from another interpreter would break dict/set lookups —
        # e.g. blocks journaled by a killed server, or results shipped
        # back from spawned worker processes.
        return (self.__class__, (self.schema, self.codes))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(
        cls, schema: Schema, values: Mapping[str, Hashable] | Sequence[Hashable]
    ) -> "RelTuple":
        """Build a tuple from a name->value mapping or a positional sequence.

        Values equal to :data:`MISSING` (or omitted from a mapping) are
        treated as missing.
        """
        codes = np.full(len(schema), MISSING_CODE, dtype=np.int32)
        if isinstance(values, Mapping):
            items = values.items()
            for name, value in items:
                if value == MISSING:
                    continue
                pos = schema.index(name)
                codes[pos] = schema[pos].code(value)
        else:
            seq = list(values)
            if len(seq) != len(schema):
                raise SchemaError(
                    f"expected {len(schema)} values, got {len(seq)}"
                )
            for pos, value in enumerate(seq):
                if value == MISSING:
                    continue
                codes[pos] = schema[pos].code(value)
        return cls(schema, codes)

    # -- basic properties --------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """True if this tuple is a point (Def. 2.2)."""
        return not self._missing

    @property
    def complete_positions(self) -> tuple[int, ...]:
        """Positions of attributes with known values (the complete portion)."""
        return tuple(int(i) for i in np.flatnonzero(self.codes != MISSING_CODE))

    @property
    def missing_positions(self) -> tuple[int, ...]:
        """Positions of attributes whose value is missing."""
        return self._missing

    @property
    def num_missing(self) -> int:
        return len(self._missing)

    def value(self, name: str) -> Hashable:
        """Return the value of attribute ``name`` (or :data:`MISSING`)."""
        pos = self.schema.index(name)
        code = int(self.codes[pos])
        if code == MISSING_CODE:
            return MISSING
        return self.schema[pos].value(code)

    def values(self) -> tuple[Hashable, ...]:
        """Positional values, with :data:`MISSING` in missing slots."""
        return tuple(
            MISSING if code == MISSING_CODE else self.schema[pos].value(int(code))
            for pos, code in enumerate(self.codes)
        )

    def as_dict(self, include_missing: bool = False) -> dict[str, Hashable]:
        """Return ``{name: value}`` for the complete portion.

        With ``include_missing=True``, missing attributes map to ``"?"``.
        """
        out: dict[str, Hashable] = {}
        for pos, code in enumerate(self.codes):
            if code == MISSING_CODE:
                if include_missing:
                    out[self.schema[pos].name] = MISSING
            else:
                out[self.schema[pos].name] = self.schema[pos].value(int(code))
        return out

    # -- matching and subsumption ------------------------------------------

    def matches_point(self, point_codes: np.ndarray) -> bool:
        """True if the complete point ``point_codes`` matches this tuple.

        Per Def. 2.3, a point matches an incomplete tuple when they agree on
        the tuple's complete portion.
        """
        known = self.codes != MISSING_CODE
        return bool((point_codes[known] == self.codes[known]).all())

    def match_mask(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of rows in the ``(n, k)`` code matrix matching this tuple."""
        known = np.flatnonzero(self.codes != MISSING_CODE)
        if known.size == 0:
            return np.ones(points.shape[0], dtype=bool)
        return (points[:, known] == self.codes[known]).all(axis=1)

    def complete_with(self, assignment: Mapping[str, Hashable]) -> "RelTuple":
        """Return a copy with some missing attributes filled in."""
        codes = self.codes.copy()
        for name, value in assignment.items():
            pos = self.schema.index(name)
            if codes[pos] != MISSING_CODE:
                raise SchemaError(
                    f"attribute {name!r} already has a value in this tuple"
                )
            codes[pos] = self.schema[pos].code(value)
        return RelTuple(self.schema, codes)

    def restrict(self, positions: Sequence[int]) -> "RelTuple":
        """Return a tuple keeping only ``positions``; all others become missing."""
        codes = np.full(len(self.schema), MISSING_CODE, dtype=np.int32)
        for pos in positions:
            codes[pos] = self.codes[pos]
        return RelTuple(self.schema, codes)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelTuple):
            return NotImplemented
        # Equal schemas mean equal-length int32 code vectors, so comparing
        # raw bytes is exact — and far cheaper than an elementwise ufunc
        # on the dict/set probes of every dedupe.
        return (
            self.schema == other.schema
            and self.codes.tobytes() == other.codes.tobytes()
        )

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.values())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{attr.name}={val}" for attr, val in zip(self.schema, self.values())
        )
        return f"<{parts}>"


def make_tuple(
    schema: Schema, values: Mapping[str, Hashable] | Sequence[Hashable]
) -> RelTuple:
    """Convenience alias for :meth:`RelTuple.from_values`."""
    return RelTuple.from_values(schema, values)


def subsumes(t1: RelTuple, t2: RelTuple) -> bool:
    """True if ``t1`` subsumes ``t2`` or they are equal on known positions.

    Non-strict variant of Def. 2.4: every value assignment made by ``t1`` is
    also made by ``t2``.
    """
    if t1.schema != t2.schema:
        return False
    known = t1.codes != MISSING_CODE
    return bool((t2.codes[known] == t1.codes[known]).all())


def proper_subsumes(t1: RelTuple, t2: RelTuple) -> bool:
    """True if ``t1`` subsumes ``t2`` per Def. 2.4 (``t2 < t1``).

    The complete portion of ``t1`` must be a *proper* subset of the complete
    portion of ``t2``, with agreeing values.
    """
    if not subsumes(t1, t2):
        return False
    return t1.num_missing > t2.num_missing
