"""Compiled meta-rule semi-lattices: flat NumPy structures for batch voting.

:class:`~repro.core.mrsl.MRSL` answers Algorithm 2's matching queries by
enumerating ``combinations()`` of a tuple's known items — fine for one
tuple, wasteful for a workload that asks the same evidence signature over
and over.  This module *compiles* a semi-lattice into flat arrays so that
matching and vote combination become single vectorized operations:

* a stacked CPD matrix (one row per meta-rule) and a weight vector;
* padded body matrices, so "which meta-rules match this evidence?" is one
  ``(R, maxBody)`` comparison instead of a subset enumeration;
* per-rule ancestor index sets, so the *best* (most specific) filter is a
  set difference instead of pairwise subsumption tests;
* a body -> row index keyed by itemset for point lookups.

Rules are stored in the canonical ``(body_size, body)`` order — exactly the
order :meth:`MRSL.matching` enumerates them — so combining rows in ascending
index order reproduces the naive path's floating-point results bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import combinations
from typing import Hashable, Iterator

import numpy as np

from ..relational.tuples import MISSING_CODE
from .inference import VoterChoice, VotingScheme, _combine_stack
from .itemsets import Itemset
from .mrsl import MRSL, MRSLModel

__all__ = ["LRUCache", "CompiledMRSL", "CompiledModel"]


class LRUCache:
    """A size-bounded least-recently-used map with hit/miss counters.

    ``maxsize=None`` disables eviction (the pre-compilation behavior of the
    Gibbs CPD cache); any positive bound evicts the least recently *read or
    written* entry once full.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable):
        """Return the cached value or ``None``, updating recency and counters."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def info(self) -> dict[str, int | None]:
        """Counters in one dict, for diagnostics reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data


class CompiledMRSL:
    """One semi-lattice flattened into matching/voting-ready arrays."""

    __slots__ = (
        "head_attribute",
        "cardinality",
        "bodies",
        "cpds",
        "weights",
        "body_sizes",
        "root_index",
        "signature_attrs",
        "_body_index",
        "_body_attrs",
        "_body_vals",
        "_pad",
        "_ancestors",
    )

    def __init__(self, lattice: MRSL, cardinality: int):
        self.head_attribute = lattice.head_attribute
        self.cardinality = cardinality
        # Canonical order: by (body size, body) — the order MRSL.matching
        # enumerates matches in, so ascending row index == naive voter order.
        rules = sorted(lattice, key=lambda m: (m.body_size, m.body))
        n = len(rules)
        max_body = max((m.body_size for m in rules), default=0)

        self.bodies: tuple[Itemset, ...] = tuple(m.body for m in rules)
        self._body_index: dict[Itemset, int] = {
            body: i for i, body in enumerate(self.bodies)
        }
        if n:
            self.cpds = np.vstack([m.probs for m in rules])
        else:
            self.cpds = np.empty((0, cardinality), dtype=np.float64)
        self.weights = np.array([m.weight for m in rules], dtype=np.float64)
        self.body_sizes = np.array([m.body_size for m in rules], dtype=np.int32)
        self.root_index = self._body_index.get((), -1)

        # Padded body matrices: row i matches evidence `codes` iff
        # codes[attr] == val for every (attr, val) in body i.  Padding slots
        # point at attribute 0 but are masked out of the comparison.
        self._body_attrs = np.zeros((n, max_body), dtype=np.intp)
        self._body_vals = np.full((n, max_body), MISSING_CODE, dtype=np.int32)
        self._pad = np.ones((n, max_body), dtype=bool)
        for i, m in enumerate(rules):
            for k, (attr, val) in enumerate(m.body):
                self._body_attrs[i, k] = attr
                self._body_vals[i, k] = val
                self._pad[i, k] = False

        # Per-rule ancestors: rows whose body is a proper subset of this
        # row's body.  A match is "best" iff it is no matched rule's ancestor.
        # Filled on first use: a derive that matches few rules (a small
        # delta, a cold engine) should not pay O(R * 2^maxBody) up front.
        self._ancestors: dict[int, frozenset[int]] = {}

        # Attributes mentioned by any body: the evidence *signature* — two
        # code vectors agreeing on these attributes have identical voter sets.
        attrs = sorted({attr for body in self.bodies for attr, _ in body})
        self.signature_attrs = np.array(attrs, dtype=np.intp)

    def _ancestor_rows(self, row: int) -> frozenset[int]:
        out = self._ancestors.get(row)
        if out is None:
            body = self.bodies[row]
            out = frozenset(
                anc
                for size in range(len(body))
                for sub in combinations(body, size)
                if (anc := self._body_index.get(sub)) is not None
            )
            self._ancestors[row] = out
        return out

    # -- collection protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.bodies)

    def row(self, body: Itemset) -> int | None:
        """The row index of the meta-rule with exactly this body, if present."""
        return self._body_index.get(body)

    # -- matching ---------------------------------------------------------------

    def signature(self, codes: np.ndarray) -> bytes:
        """Hashable evidence signature: the codes matching actually reads.

        Restricting to the body-mentioned attributes maximizes sharing —
        tuples differing only on attributes no meta-rule conditions on fall
        into the same group.
        """
        return np.ascontiguousarray(codes[self.signature_attrs]).tobytes()

    def match_rows(self, codes: np.ndarray) -> np.ndarray:
        """Ascending row indices of meta-rules whose body agrees with ``codes``.

        One vectorized comparison over all rules replaces the naive path's
        ``combinations()`` enumeration.  ``codes`` is a full code vector; the
        head position must carry :data:`MISSING_CODE`.
        """
        if not len(self.bodies):
            return np.empty(0, dtype=np.intp)
        ok = (codes[self._body_attrs] == self._body_vals) | self._pad
        return np.flatnonzero(ok.all(axis=1))

    def best_rows(self, matched: np.ndarray) -> np.ndarray:
        """Most specific subset of ``matched``: rows that subsume no other match."""
        if matched.size <= 1:
            return matched
        dominated: set[int] = set()
        for j in matched:
            dominated.update(self._ancestor_rows(int(j)))
        if not dominated:
            return matched
        keep = [i for i in matched if int(i) not in dominated]
        return np.asarray(keep, dtype=np.intp)

    def voter_rows(self, codes: np.ndarray, v_choice: VoterChoice) -> np.ndarray:
        """The voter set for one evidence vector, as ascending row indices."""
        if v_choice is VoterChoice.ROOT:
            if self.root_index < 0:
                return np.empty(0, dtype=np.intp)
            return np.array([self.root_index], dtype=np.intp)
        matched = self.match_rows(codes)
        if v_choice is VoterChoice.BEST:
            return self.best_rows(matched)
        return matched

    # -- voting -----------------------------------------------------------------

    def combine_rows(
        self, rows: np.ndarray, scheme: VotingScheme
    ) -> np.ndarray:
        """Combine the CPDs of ``rows`` — same arithmetic as the naive path.

        Row gathering happens in ascending index (= naive enumeration)
        order and the arithmetic is shared with the naive path
        (:func:`~repro.core.inference._combine_stack`), so results agree
        with :func:`~repro.core.inference._combine` bit for bit.
        """
        if rows.size == 0:
            return np.full(self.cardinality, 1.0 / self.cardinality)
        weights = (
            self.weights[rows] if scheme is VotingScheme.WEIGHTED else None
        )
        return _combine_stack(self.cpds[rows], weights, scheme)

    def infer(
        self,
        codes: np.ndarray,
        v_choice: VoterChoice,
        v_scheme: VotingScheme,
    ) -> np.ndarray:
        """Algorithm 2 for one evidence vector (uncached; callers memoize)."""
        return self.combine_rows(self.voter_rows(codes, v_choice), v_scheme)

    def __repr__(self) -> str:
        return (
            f"CompiledMRSL(head={self.head_attribute}, {len(self)} rules, "
            f"{self.signature_attrs.size} signature attrs)"
        )


class CompiledModel:
    """Lazy per-attribute compilation of an :class:`MRSLModel`."""

    __slots__ = ("model", "_compiled")

    def __init__(self, model: MRSLModel):
        self.model = model
        self._compiled: dict[int, CompiledMRSL] = {}

    def __getitem__(self, attr: int | str) -> CompiledMRSL:
        if isinstance(attr, str):
            attr = self.model.schema.index(attr)
        compiled = self._compiled.get(attr)
        if compiled is None:
            compiled = CompiledMRSL(
                self.model[attr], self.model.schema[attr].cardinality
            )
            self._compiled[attr] = compiled
        return compiled

    def __iter__(self) -> Iterator[CompiledMRSL]:
        for attr in range(len(self.model.schema)):
            yield self[attr]

    def __len__(self) -> int:
        return len(self.model)

    def __repr__(self) -> str:
        return (
            f"CompiledModel({len(self._compiled)}/{len(self.model)} "
            "lattices compiled)"
        )
