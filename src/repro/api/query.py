"""Serializable predicate and query ASTs that compile to the lineage engine.

:class:`~repro.probdb.engine.QueryEngine` takes Python lambdas, which cannot
cross a process boundary.  This module provides a small, closed algebra of
predicate nodes (comparisons, membership, boolean connectives) and query
specs (selection, self-join) that round-trip through plain JSON and compile
to exactly the callables the engine already consumes — so a query expressed
as JSON evaluates bit-identically to its hand-written lambda equivalent.

Build predicates with the :class:`Q` helpers::

    spec = SelectionQuery(
        where=Q.and_(Q.eq("income", "high"), Q.ne("age", "20")),
        project=("age",),
    )
    payload = spec.to_dict()              # plain JSON
    spec2 = query_from_dict(payload)      # spec2 == spec
    results = spec2.run(engine)           # list[ResultTuple]

Compiled predicates call ``row.value(name)``, which both
:class:`~repro.probdb.engine.ProbRow` and
:class:`~repro.relational.tuples.RelTuple` implement, so the same AST also
drives extensional helpers like ``expected_count``.

A :class:`SelectionQuery` does not go through those callables: each node
also compiles, against a schema, to a boolean mask over a matrix of
attribute codes (:meth:`Predicate.compile_mask`), which
:meth:`~repro.probdb.engine.QueryEngine.masked_selection_query` evaluates
column-wise.  Compiling a mask checks every attribute name and builds every
comparison's truth table over its attribute's domain, so an unknown name or
a value the domain cannot be compared with fails before any row is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..probdb.engine import (
    ProbRow,
    QueryEngine,
    ResultTuple,
    RowMask,
    attribute_position,
)
from ..relational.schema import Schema

__all__ = [
    "Q",
    "Predicate",
    "Cmp",
    "In",
    "And",
    "Or",
    "Not",
    "QuerySpec",
    "SelectionQuery",
    "SelfJoinQuery",
    "predicate_from_dict",
    "query_from_dict",
]

RowPredicate = Callable[[ProbRow], bool]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

#: Symbolic spellings accepted anywhere an op name is expected.
_OP_ALIASES = {
    "==": "eq",
    "=": "eq",
    "!=": "ne",
    "<>": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}


def _canonical_op(op: str) -> str:
    op = _OP_ALIASES.get(op, op)
    if op not in _COMPARATORS:
        raise ValueError(
            f"unknown comparison operator {op!r}; "
            f"valid: {sorted(_COMPARATORS)} and {sorted(_OP_ALIASES)}"
        )
    return op


class Predicate:
    """Base class of serializable row predicates."""

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    def compile(self) -> RowPredicate:
        """A plain callable equivalent to this node (for ``QueryEngine``)."""
        raise NotImplementedError

    def compile_mask(self, schema: Schema) -> RowMask:
        """This node as a mask over ``(n, len(schema))`` attribute codes.

        Row ``i`` of the mask is this predicate's value on the row whose
        codes are ``codes[i]``, exactly as :meth:`compile` would give it.
        Raises up front for an attribute missing from ``schema`` (the
        KeyError ``ProbRow.value`` raises) or a comparison the domain
        cannot make (its TypeError).
        """
        raise NotImplementedError

    @cached_property
    def _compiled(self) -> RowPredicate:
        return self.compile()

    def __call__(self, row) -> bool:
        return self._compiled(row)

    def __getstate__(self) -> dict[str, Any]:
        # The cached callable is a closure: leave it out of pickles.
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


def _truth_table(schema: Schema, attr: str, test: Callable[[Any], bool]) -> RowMask:
    """A leaf's mask: ``test`` evaluated once per value of ``attr``'s domain."""
    pos = attribute_position(schema.names, attr)
    table = np.array([bool(test(v)) for v in schema[pos].domain], dtype=bool)
    return lambda codes: table[codes[:, pos]]


@dataclass(frozen=True)
class Cmp(Predicate):
    """``row.value(attr) <op> value`` for a fixed comparison operator."""

    attr: str
    op: str
    value: Hashable

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", _canonical_op(self.op))

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op, "attr": self.attr, "value": self.value}

    def compile(self) -> RowPredicate:
        fn, attr, value = _COMPARATORS[self.op], self.attr, self.value
        return lambda row: fn(row.value(attr), value)

    def compile_mask(self, schema: Schema) -> RowMask:
        fn, value = _COMPARATORS[self.op], self.value
        return _truth_table(schema, self.attr, lambda v: fn(v, value))


@dataclass(frozen=True)
class In(Predicate):
    """``row.value(attr)`` is one of ``values``."""

    attr: str
    values: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def to_dict(self) -> dict[str, Any]:
        return {"op": "in", "attr": self.attr, "values": list(self.values)}

    def compile(self) -> RowPredicate:
        attr, allowed = self.attr, frozenset(self.values)
        return lambda row: row.value(attr) in allowed

    def compile_mask(self, schema: Schema) -> RowMask:
        allowed = frozenset(self.values)
        return _truth_table(schema, self.attr, lambda v: v in allowed)


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of child predicates (true when childless)."""

    children: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))

    def to_dict(self) -> dict[str, Any]:
        return {"op": "and", "args": [c.to_dict() for c in self.children]}

    def compile(self) -> RowPredicate:
        preds = [c.compile() for c in self.children]
        return lambda row: all(p(row) for p in preds)

    def compile_mask(self, schema: Schema) -> RowMask:
        masks = [c.compile_mask(schema) for c in self.children]

        def mask(codes: np.ndarray) -> np.ndarray:
            out = np.ones(len(codes), dtype=bool)
            for m in masks:
                out &= m(codes)
            return out

        return mask


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of child predicates (false when childless)."""

    children: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))

    def to_dict(self) -> dict[str, Any]:
        return {"op": "or", "args": [c.to_dict() for c in self.children]}

    def compile(self) -> RowPredicate:
        preds = [c.compile() for c in self.children]
        return lambda row: any(p(row) for p in preds)

    def compile_mask(self, schema: Schema) -> RowMask:
        masks = [c.compile_mask(schema) for c in self.children]

        def mask(codes: np.ndarray) -> np.ndarray:
            out = np.zeros(len(codes), dtype=bool)
            for m in masks:
                out |= m(codes)
            return out

        return mask


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of one child predicate."""

    child: Predicate

    def to_dict(self) -> dict[str, Any]:
        return {"op": "not", "arg": self.child.to_dict()}

    def compile(self) -> RowPredicate:
        pred = self.child.compile()
        return lambda row: not pred(row)

    def compile_mask(self, schema: Schema) -> RowMask:
        inner = self.child.compile_mask(schema)
        return lambda codes: ~inner(codes)


class Q:
    """Builder namespace: ``Q.eq("age", "30")``, ``Q.and_(p, q)``, ..."""

    @staticmethod
    def cmp(attr: str, op: str, value: Hashable) -> Cmp:
        return Cmp(attr, op, value)

    @staticmethod
    def eq(attr: str, value: Hashable) -> Cmp:
        return Cmp(attr, "eq", value)

    @staticmethod
    def ne(attr: str, value: Hashable) -> Cmp:
        return Cmp(attr, "ne", value)

    @staticmethod
    def lt(attr: str, value: Hashable) -> Cmp:
        return Cmp(attr, "lt", value)

    @staticmethod
    def le(attr: str, value: Hashable) -> Cmp:
        return Cmp(attr, "le", value)

    @staticmethod
    def gt(attr: str, value: Hashable) -> Cmp:
        return Cmp(attr, "gt", value)

    @staticmethod
    def ge(attr: str, value: Hashable) -> Cmp:
        return Cmp(attr, "ge", value)

    @staticmethod
    def in_(attr: str, values: Iterable[Hashable]) -> In:
        return In(attr, tuple(values))

    @staticmethod
    def and_(*predicates: Predicate) -> And:
        return And(tuple(predicates))

    @staticmethod
    def or_(*predicates: Predicate) -> Or:
        return Or(tuple(predicates))

    @staticmethod
    def not_(predicate: Predicate) -> Not:
        return Not(predicate)


def predicate_from_dict(data: Mapping[str, Any]) -> Predicate:
    """Rebuild a predicate node from its ``to_dict`` form."""
    try:
        op = data["op"]
    except KeyError:
        raise ValueError(f"predicate dict needs an 'op' key: {data!r}") from None
    if op == "and":
        return And(tuple(predicate_from_dict(d) for d in data["args"]))
    if op == "or":
        return Or(tuple(predicate_from_dict(d) for d in data["args"]))
    if op == "not":
        return Not(predicate_from_dict(data["arg"]))
    if op == "in":
        return In(data["attr"], tuple(data["values"]))
    return Cmp(data["attr"], op, data["value"])


def _optional_names(names: Sequence[str] | None) -> tuple[str, ...] | None:
    return None if names is None else tuple(names)


class QuerySpec:
    """Base class of serializable query plans."""

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    def run(self, engine: QueryEngine) -> list[ResultTuple]:
        """Evaluate against a :class:`QueryEngine`."""
        raise NotImplementedError


@dataclass(frozen=True)
class SelectionQuery(QuerySpec):
    """``SELECT [DISTINCT project] FROM R WHERE where`` as data."""

    where: Predicate | None = None
    project: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "project", _optional_names(self.project))

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "selection",
            "where": None if self.where is None else self.where.to_dict(),
            "project": None if self.project is None else list(self.project),
        }

    def run(self, engine: QueryEngine) -> list[ResultTuple]:
        """Evaluate column-wise; equal, bit for bit, to the lineage path."""
        mask = None if self.where is None else self.where.compile_mask(engine.db.schema)
        return engine.masked_selection_query(mask, project_to=self.project)


@dataclass(frozen=True)
class SelfJoinQuery(QuerySpec):
    """Join the database with itself — the canonical unsafe query, as data.

    ``on`` pairs un-prefixed attribute names; ``where`` and ``project`` see
    the prefixed names (``l_age``, ``r_age``, ...), exactly as the engine's
    ``self_join_query`` convention.
    """

    on: tuple[tuple[str, str], ...]
    where: Predicate | None = None
    project: tuple[str, ...] | None = None
    left_prefix: str = "l_"
    right_prefix: str = "r_"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "on", tuple((str(a), str(b)) for a, b in self.on)
        )
        object.__setattr__(self, "project", _optional_names(self.project))

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "self_join",
            "on": [list(pair) for pair in self.on],
            "where": None if self.where is None else self.where.to_dict(),
            "project": None if self.project is None else list(self.project),
            "left_prefix": self.left_prefix,
            "right_prefix": self.right_prefix,
        }

    def run(self, engine: QueryEngine) -> list[ResultTuple]:
        return engine.self_join_query(
            on=self.on,
            predicate=None if self.where is None else self.where.compile(),
            project_to=self.project,
            left_prefix=self.left_prefix,
            right_prefix=self.right_prefix,
        )


def query_from_dict(data: Mapping[str, Any]) -> QuerySpec:
    """Rebuild a query spec from its ``to_dict`` form."""
    kind = data.get("type")
    where = data.get("where")
    parsed_where = None if where is None else predicate_from_dict(where)
    project = data.get("project")
    if kind == "selection":
        return SelectionQuery(where=parsed_where, project=project)
    if kind == "self_join":
        return SelfJoinQuery(
            on=tuple(tuple(pair) for pair in data["on"]),
            where=parsed_where,
            project=project,
            left_prefix=data.get("left_prefix", "l_"),
            right_prefix=data.get("right_prefix", "r_"),
        )
    raise ValueError(
        f"unknown query type {kind!r}; valid: 'selection', 'self_join'"
    )
