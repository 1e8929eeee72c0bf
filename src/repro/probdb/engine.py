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

A selection without a join has a columnar twin,
:meth:`QueryEngine.masked_selection_query`: the scan becomes one int32 code
matrix (certain rows, then every block's completions in outcome order), the
predicate a boolean mask over it, and only the surviving rows are decoded,
merged and given lineage.  Each completion is one independent block atom,
so a merged row's probability is the lineage path's closed form for a
disjunction of atoms (:func:`~repro.probdb.lineage.atom_disjunction_probability`,
shared by both paths and fed in the same order) — the results equal
:meth:`QueryEngine.selection_query`'s bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Hashable, Sequence

import numpy as np

from .database import ProbabilisticDatabase
from .lineage import (
    FALSE,
    TRUE,
    BlockChoice,
    Event,
    atom_disjunction_probability,
    conjunction,
    disjunction,
    event_probability,
)

__all__ = ["ProbRow", "ResultTuple", "QueryEngine", "attribute_position"]

#: A predicate over the scan's ``(n, width)`` int32 code matrix: one bool
#: per row.
RowMask = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProbRow:
    """One intermediate row: named values plus the event it depends on."""

    attributes: tuple[str, ...]
    values: tuple[Hashable, ...]
    event: Event

    def value(self, name: str) -> Hashable:
        return self.values[attribute_position(self.attributes, name)]

    def as_dict(self) -> dict[str, Hashable]:
        return dict(zip(self.attributes, self.values))


def attribute_position(attributes: Sequence[str], name: str) -> int:
    """Position of ``name`` in ``attributes``, else a KeyError naming it."""
    try:
        return attributes.index(name)
    except ValueError:
        raise KeyError(f"no attribute {name!r} in row") from None


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

    def masked_selection_query(
        self,
        mask: RowMask | None,
        project_to: Sequence[str] | None = None,
    ) -> list[ResultTuple]:
        """:meth:`selection_query` with the predicate given as a row mask.

        ``mask`` maps the scan's code matrix (one int32 row of attribute
        codes per :meth:`scan` row, in scan order) to one bool per row;
        ``None`` keeps every row.  Equal, bit for bit, to
        ``selection_query`` with the matching row predicate — values,
        probabilities, order and events — but only the surviving rows are
        decoded and given lineage.  An unknown ``project_to`` name raises
        the row path's KeyError even when no row survives.
        """
        names = self.db.schema.names
        attributes = names if project_to is None else tuple(project_to)
        key_pos = np.array(
            [attribute_position(names, n) for n in attributes], dtype=np.intp
        )
        cols = _ScanColumns(self.db)
        if mask is None:
            rows = np.arange(len(cols.codes))
        else:
            rows = np.flatnonzero(mask(cols.codes))
        if rows.size == 0:
            return []
        # One result row per distinct key, numbered as the row path's
        # merge dict inserts them.
        keys = cols.codes[np.ix_(rows, key_pos)]
        group, first = _first_appearance_groups(keys)
        n_groups = len(first)
        columns = []
        for p, col in zip(key_pos.tolist(), keys[first].T.tolist()):
            domain = self.db.schema[p].domain
            columns.append([domain[c] for c in col])
        values = list(zip(*columns)) if columns else [()] * n_groups

        # Each group's atoms, contiguous and in scan order: block order,
        # then outcome order within a block.
        is_atom = rows >= cols.n_certain
        certain = np.zeros(n_groups, dtype=bool)
        certain[group[~is_atom]] = True
        atom_group = group[is_atom]
        order = np.argsort(atom_group, kind="stable")
        comp = rows[is_atom][order] - cols.n_certain
        bounds = np.zeros(n_groups + 1, dtype=np.intp)
        np.cumsum(np.bincount(atom_group, minlength=n_groups), out=bounds[1:])
        block = cols.block[comp]
        outcome = (comp - cols.start[block]).tolist()
        prob = cols.prob[comp].tolist()
        block = block.tolist()
        bounds = bounds.tolist()

        blocks = self.db.blocks
        out = []
        for g, is_certain in enumerate(certain.tolist()):
            lo, hi = bounds[g], bounds[g + 1]
            if is_certain:
                p = 1.0
            elif hi - lo == 1:
                p = min(prob[lo], 1.0)
            else:
                # One block's atoms are adjacent and in outcome order, and
                # the blocks in first-appearance order, as the lineage
                # closed form takes them.
                runs = groupby(range(lo, hi), key=block.__getitem__)
                p = min(
                    atom_disjunction_probability(
                        [prob[i] for i in run] for _, run in runs
                    ),
                    1.0,
                )
            if p > 0.0:
                event = TRUE if is_certain else disjunction(
                    BlockChoice(b, blocks[b].distribution.outcomes[o])
                    for b, o in zip(block[lo:hi], outcome[lo:hi])
                )
                out.append(ResultTuple(attributes, values[g], p, event))
        out.sort(key=lambda t: t.probability, reverse=True)
        return out

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


class _ScanColumns:
    """:meth:`QueryEngine.scan` as columns.

    ``codes`` holds every scan row's attribute codes in scan order: the
    ``n_certain`` certain rows, then each block's completions in outcome
    order.  Completion ``k`` (row ``n_certain + k``) is outcome ``k -
    start[block[k]]`` of block ``block[k]``, with probability ``prob[k]``.
    """

    __slots__ = ("codes", "n_certain", "block", "start", "prob")

    def __init__(self, db: ProbabilisticDatabase):
        schema, blocks = db.schema, db.blocks
        sizes = np.array([len(b.distribution) for b in blocks], dtype=np.intp)
        self.n_certain = len(db.certain)
        self.start = np.cumsum(sizes) - sizes
        self.block = np.repeat(np.arange(len(blocks)), sizes)
        self.codes = np.empty(
            (self.n_certain + int(sizes.sum()), len(schema)), dtype=np.int32
        )
        if db.certain:
            np.stack([t.codes for t in db.certain], out=self.codes[: self.n_certain])
        if not blocks:
            self.prob = np.empty(0)
            return
        completions = self.codes[self.n_certain :]
        bases = np.stack([b.base.codes for b in blocks])
        np.take(bases, self.block, axis=0, out=completions)
        # Fill the missing cells once per missing pattern and outcome set:
        # a derive's blocks share a few outcome sets (``Distribution.stack``).
        patterns: dict[tuple, list[int]] = {}
        for i, b in enumerate(blocks):
            key = (b.base.missing_positions, b.distribution.outcomes)
            patterns.setdefault(key, []).append(i)
        code_of = [{v: c for c, v in enumerate(a.domain)} for a in schema]
        for (missing, outcomes), members in patterns.items():
            lookups = [code_of[p] for p in missing]
            table = np.array(
                [[lk[v] for lk, v in zip(lookups, o)] for o in outcomes],
                dtype=np.int32,
            )
            at = self.start[members][:, None, None] + np.arange(len(outcomes))[:, None]
            completions[at, np.array(missing)] = table
        self.prob = np.concatenate([b.distribution.probs for b in blocks])


def _first_appearance_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of ``keys`` in order of first appearance.

    Returns each row's group number and each group's first row.
    """
    if keys.shape[1] == 0:
        return np.zeros(len(keys), dtype=np.intp), np.zeros(1, dtype=np.intp)
    _, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]
