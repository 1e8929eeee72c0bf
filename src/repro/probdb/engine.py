"""An intensional select-project-join engine over derived databases.

The paper's Section VIII poses query processing over the derived
probabilistic databases as the next problem; this engine answers SPJ queries
*exactly* by tracking lineage (:mod:`repro.probdb.lineage`) through the
operators and computing each result tuple's probability by Shannon
expansion at the end.  Correct on the cases that break extensional
evaluation — self-joins, repeated use of one block, projections that merge
rows from correlated completions.

Operators work over streams of :class:`ProbRow` — value tuples over a named
attribute list plus an event.  The entry point is :class:`QueryEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .database import ProbabilisticDatabase
from .lineage import (
    FALSE,
    TRUE,
    BlockChoice,
    Event,
    conjunction,
    disjunction,
    event_probability,
)

__all__ = ["ProbRow", "ResultTuple", "QueryEngine"]


@dataclass(frozen=True)
class ProbRow:
    """One intermediate row: named values plus the event it depends on."""

    attributes: tuple[str, ...]
    values: tuple[Hashable, ...]
    event: Event

    def value(self, name: str) -> Hashable:
        try:
            return self.values[self.attributes.index(name)]
        except ValueError:
            raise KeyError(f"no attribute {name!r} in row") from None

    def as_dict(self) -> dict[str, Hashable]:
        return dict(zip(self.attributes, self.values))


@dataclass(frozen=True)
class ResultTuple:
    """One final result: values, exact probability, and its lineage."""

    attributes: tuple[str, ...]
    values: tuple[Hashable, ...]
    probability: float
    event: Event

    def as_dict(self) -> dict[str, Hashable]:
        return dict(zip(self.attributes, self.values))


class QueryEngine:
    """Exact SPJ evaluation over one probabilistic database.

    The engine exposes composable operators returning ``list[ProbRow]`` and
    a final :meth:`evaluate` that deduplicates rows and prices their events.

    Example::

        engine = QueryEngine(db)
        rows = engine.scan()
        rows = engine.select(rows, lambda r: r.value("nw") == "500K")
        result = engine.evaluate(engine.project(rows, ["age"]))
    """

    def __init__(self, db: ProbabilisticDatabase):
        self.db = db
        #: the DeriveResult when built via :meth:`from_relation`, else None
        self.derive_result = None

    @classmethod
    def from_relation(cls, relation, config=None, **run_inputs) -> "QueryEngine":
        """Derive ``relation``'s probabilistic database and wrap it.

        ``config`` (a :class:`~repro.api.config.DeriveConfig` or a mapping
        of its fields, e.g. ``{"engine": "naive"}``) and the run inputs
        (``rng``, ``model``, ...) are forwarded to
        :func:`~repro.core.derive.derive_probabilistic_database`.  The
        derivation diagnostics stay available as ``engine.derive_result``.
        """
        # Imported here: repro.core depends on this package.
        from ..core.derive import derive_probabilistic_database

        result = derive_probabilistic_database(relation, config, **run_inputs)
        out = cls(result.database)
        out.derive_result = result
        return out

    # -- leaf operator ------------------------------------------------------------

    def scan(self, prefix: str = "") -> list[ProbRow]:
        """All tuples of the database as rows with their lineage.

        Certain tuples carry the TRUE event; each completion of block ``i``
        carries the atom ``BlockChoice(i, outcome)``.  ``prefix`` renames
        attributes (needed to join the database with itself).
        """
        names = tuple(prefix + n for n in self.db.schema.names)
        rows = [
            ProbRow(names, t.values(), TRUE) for t in self.db.certain
        ]
        for i, block in enumerate(self.db.blocks):
            for (completed, _), outcome in zip(
                block.completions(), block.distribution.outcomes
            ):
                rows.append(
                    ProbRow(names, completed.values(), BlockChoice(i, outcome))
                )
        return rows

    # -- composable operators ---------------------------------------------------------

    @staticmethod
    def select(
        rows: Sequence[ProbRow], predicate: Callable[[ProbRow], bool]
    ) -> list[ProbRow]:
        """Keep rows satisfying ``predicate`` (lineage unchanged)."""
        return [r for r in rows if predicate(r)]

    @staticmethod
    def project(rows: Sequence[ProbRow], names: Sequence[str]) -> list[ProbRow]:
        """Project onto ``names`` with duplicate *merging*.

        Rows collapsing to the same projected values are merged and their
        events disjoined — the step extensional engines get wrong when the
        merged rows are correlated.
        """
        names = tuple(names)
        merged: dict[tuple[Hashable, ...], list[Event]] = {}
        for r in rows:
            key = tuple(r.value(n) for n in names)
            merged.setdefault(key, []).append(r.event)
        return [
            ProbRow(names, key, disjunction(events))
            for key, events in merged.items()
        ]

    @staticmethod
    def join(
        left: Sequence[ProbRow],
        right: Sequence[ProbRow],
        on: Sequence[tuple[str, str]],
    ) -> list[ProbRow]:
        """Equi-join: ``on`` pairs ``(left_attr, right_attr)``.

        Events are conjoined; contradictory block choices (a block forced
        into two different outcomes, as in a self-join across completions)
        fold to FALSE and are dropped.
        """
        if not on:
            raise ValueError("join requires at least one attribute pair")
        index: dict[tuple[Hashable, ...], list[ProbRow]] = {}
        for r in right:
            key = tuple(r.value(rn) for _, rn in on)
            index.setdefault(key, []).append(r)
        out = []
        for lt in left:
            key = tuple(lt.value(ln) for ln, _ in on)
            for r in index.get(key, ()):  # hash join
                event = conjunction([lt.event, r.event])
                if event is not FALSE:
                    out.append(
                        ProbRow(
                            lt.attributes + r.attributes,
                            lt.values + r.values,
                            event,
                        )
                    )
        return out

    # -- finalization -----------------------------------------------------------------

    def evaluate(
        self, rows: Sequence[ProbRow], dedup: bool = True
    ) -> list[ResultTuple]:
        """Price every row's event; optionally merge duplicate value rows.

        Results are sorted by probability, descending; zero-probability
        rows are dropped.
        """
        if dedup and rows:
            rows = self.project(rows, rows[0].attributes)
        out = []
        for r in rows:
            p = event_probability(r.event, self.db)
            if p > 0.0:
                out.append(ResultTuple(r.attributes, r.values, p, r.event))
        out.sort(key=lambda t: t.probability, reverse=True)
        return out

    # -- convenience one-liners ----------------------------------------------------------

    def selection_query(
        self,
        predicate: Callable[[ProbRow], bool],
        project_to: Sequence[str] | None = None,
    ) -> list[ResultTuple]:
        """``SELECT [DISTINCT cols] FROM R WHERE predicate`` in one call."""
        rows = self.select(self.scan(), predicate)
        if project_to is not None:
            rows = self.project(rows, project_to)
        return self.evaluate(rows)

    def self_join_query(
        self,
        on: Sequence[tuple[str, str]],
        predicate: Callable[[ProbRow], bool] | None = None,
        project_to: Sequence[str] | None = None,
        left_prefix: str = "l_",
        right_prefix: str = "r_",
    ) -> list[ResultTuple]:
        """Join the database with itself — the canonical unsafe query."""
        left = self.scan(prefix=left_prefix)
        right = self.scan(prefix=right_prefix)
        on = [(left_prefix + a, right_prefix + b) for a, b in on]
        rows = self.join(left, right, on)
        if predicate is not None:
            rows = self.select(rows, predicate)
        if project_to is not None:
            rows = self.project(rows, project_to)
        return self.evaluate(rows)
