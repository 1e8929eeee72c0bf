"""Compiled meta-rule semi-lattices: flat NumPy structures for batch voting.

:class:`~repro.core.mrsl.MRSL` answers Algorithm 2's matching queries by
enumerating ``combinations()`` of a tuple's known items — fine for one
tuple, wasteful for a workload that asks the same evidence signature over
and over.  This module *compiles* a semi-lattice into flat arrays so that
Algorithm 2 runs for a whole batch of distinct signatures at once
(:meth:`CompiledMRSL.infer_many`):

* a stacked CPD matrix (one row per meta-rule) and a weight vector;
* padded body matrices, so "which meta-rules match this evidence?" is one
  ``(G, R, maxBody)`` comparison for ``G`` evidence rows;
* a rule-dominance CSR (row ``j`` lists the rules whose body is a proper
  subset of rule ``j``'s), so the *best* (most specific) filter is one
  scatter over the matched rows' CSR entries;
* a body -> row index keyed by itemset for point lookups.

Rules are stored in the canonical ``(body_size, body)`` order — exactly the
order :meth:`MRSL.matching` enumerates them — so combining rows in ascending
index order reproduces the naive path's floating-point results bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator

import numpy as np

from ..relational.tuples import MISSING_CODE
from ..probdb.distribution import DEFAULT_SMOOTHING_FLOOR
from .inference import VoterChoice, VotingScheme, _combine_stack
from .itemsets import Itemset
from .mrsl import MRSL, MRSLModel

__all__ = ["LRUCache", "CompiledMRSL", "CompiledModel", "MATCH_CHUNK_BYTES"]

#: Byte budget of the ``(rows, R, maxBody)`` int32 gather one matching
#: chunk makes.  :meth:`CompiledMRSL.infer_many` and the dominance build
#: split their rows into chunks under it, so their temporaries (match
#: mask, CSR expansion, voter matrix) grow with the chunk, not the batch.
MATCH_CHUNK_BYTES = 1 << 20


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
        "_sum_tables",
        "_dominance",
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

        # Per-scheme summands of the rank-ordered combine, each with one
        # extra all-zero row (index R) that pads short voter lists.  Filled
        # on first use of the scheme.
        self._sum_tables: dict[VotingScheme, np.ndarray] = {}
        # Rule-dominance CSR (indptr, indices), built on the first BEST
        # batch: only that voter choice reads it.
        self._dominance: tuple[np.ndarray, np.ndarray] | None = None

        # Attributes mentioned by any body: the evidence *signature* — two
        # code vectors agreeing on these attributes have identical voter sets.
        attrs = sorted({attr for body in self.bodies for attr, _ in body})
        self.signature_attrs = np.array(attrs, dtype=np.intp)

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

    def _chunk_rows(self) -> int:
        """Evidence rows per matching chunk under :data:`MATCH_CHUNK_BYTES`."""
        per_row = 4 * max(self._body_attrs.size, 1)
        return max(1, MATCH_CHUNK_BYTES // per_row)

    def _match(self, reps: np.ndarray) -> np.ndarray:
        """``(G, R)`` mask: rule ``r`` matches evidence row ``g``.

        Rule ``r`` matches when every ``(attr, val)`` of its body agrees
        with the row; padding slots always agree, so the root (and any rule
        when ``maxBody == 0``) matches every row.
        """
        return ((reps[:, self._body_attrs] == self._body_vals) | self._pad).all(
            axis=2
        )

    def _dominance_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Rule-dominance CSR: row ``j`` holds the rules ``i != j`` with
        ``body_i`` a proper subset of ``body_j``, ascending.

        Built with the matching primitive itself: rule ``j``'s body, written
        as an evidence row (:data:`MISSING_CODE` elsewhere), is matched by
        exactly the rules whose body it contains.  Costs one chunked
        ``(R, R, maxBody)`` comparison, once per lattice; holds
        ``R + 1`` pointers plus one index per (rule, proper sub-rule) pair,
        at most ``R * (2**maxBody - 1)``.
        """
        if self._dominance is None:
            n = len(self)
            width = int(self._body_attrs.max()) + 1 if self._body_attrs.size else 1
            evidence = np.full((n, width), MISSING_CODE, dtype=np.int32)
            rule, slot = np.nonzero(~self._pad)
            evidence[rule, self._body_attrs[rule, slot]] = self._body_vals[rule, slot]
            counts, indices = [], []
            step = self._chunk_rows()
            for lo in range(0, n, step):
                sub = self._match(evidence[lo : lo + step])
                rows = np.arange(sub.shape[0])
                sub[rows, lo + rows] = False  # a rule never dominates itself
                counts.append(sub.sum(axis=1))
                indices.append(np.nonzero(sub)[1])
            indptr = np.zeros(n + 1, dtype=np.intp)
            if n:
                np.cumsum(np.concatenate(counts), out=indptr[1:])
                flat = np.concatenate(indices).astype(np.intp)
            else:
                flat = np.empty(0, dtype=np.intp)
            self._dominance = (indptr, flat)
        return self._dominance

    def _drop_dominated(self, matched: np.ndarray) -> np.ndarray:
        """Clear, in place, every matched rule that a matched rule dominates.

        A rule whose body is a subset of a matched body matches too, so
        clearing each matched row's CSR entries leaves exactly the most
        specific matches: the *best* voters.
        """
        indptr, indices = self._dominance_csr()
        group, rule = np.nonzero(matched)
        starts = indptr[rule]
        lens = indptr[rule + 1] - starts
        total = int(lens.sum())
        if total:
            # Position p of the expansion reads indices[starts[k] + p - offset[k]]
            # for the matched pair k it falls in.
            offsets = np.cumsum(lens) - lens
            at = np.repeat(starts - offsets, lens) + np.arange(total)
            matched[np.repeat(group, lens), indices[at]] = False
        return matched

    def _voters(
        self, reps: np.ndarray, v_choice: VoterChoice
    ) -> tuple[np.ndarray, np.ndarray]:
        """Voter sets of evidence rows as a padded ``(G, K)`` matrix.

        Row ``g`` holds its voters' row indices in ascending (= naive
        enumeration) order, padded with ``R`` (the zero row of the sum
        tables); the second array counts each row's voters.
        """
        g = reps.shape[0]
        if v_choice is VoterChoice.ROOT:
            if self.root_index < 0:
                return np.empty((g, 0), dtype=np.intp), np.zeros(g, dtype=np.intp)
            return (
                np.full((g, 1), self.root_index, dtype=np.intp),
                np.ones(g, dtype=np.intp),
            )
        matched = self._match(reps)
        if v_choice is VoterChoice.BEST:
            matched = self._drop_dominated(matched)
        counts = matched.sum(axis=1)
        group, rule = np.nonzero(matched)  # row-major: ascending rule per group
        voters = np.full((g, int(counts.max(initial=0))), len(self), dtype=np.intp)
        rank = np.arange(rule.size) - np.repeat(np.cumsum(counts) - counts, counts)
        voters[group, rank] = rule
        return voters, counts

    def voter_rows(self, codes: np.ndarray, v_choice: VoterChoice) -> np.ndarray:
        """The voter set for one evidence vector, as ascending row indices."""
        voters, counts = self._voters(codes[None, :], v_choice)
        return voters[0, : counts[0]]

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

    def _sum_table(self, scheme: VotingScheme) -> np.ndarray:
        """The per-rule summands of ``scheme`` plus a trailing zero row."""
        table = self._sum_tables.get(scheme)
        if table is None:
            rows = self.cpds
            if scheme is VotingScheme.LOG_POOL:
                rows = np.log(np.maximum(rows, DEFAULT_SMOOTHING_FLOOR))
            table = np.zeros((len(self) + 1, self.cardinality))
            table[:-1] = rows
            self._sum_tables[scheme] = table
        return table

    def _combine_many(
        self, voters: np.ndarray, counts: np.ndarray, scheme: VotingScheme
    ) -> np.ndarray:
        """One combined CPD per row of a padded voter matrix.

        AVERAGED and LOG_POOL add the voters' rows one rank at a time.
        ``stack.mean(axis=0)`` on the naive path reduces a C-ordered stack
        along axis 0 the same way — row 0, then ``+= row k`` for each later
        ``k`` — and adding the zero pad row leaves a sum unchanged, so every
        float operation, and hence every bit, matches
        :func:`~repro.core.inference._combine_stack`.  WEIGHTED's
        ``weights @ stack`` is a BLAS dot with no fixed summation order, so
        it is combined row by row through :meth:`combine_rows`.
        """
        g = voters.shape[0]
        if scheme is VotingScheme.WEIGHTED:
            out = np.empty((g, self.cardinality))
            for k in range(g):
                out[k] = self.combine_rows(voters[k, : counts[k]], scheme)
            return out
        table = self._sum_table(scheme)
        out = np.zeros((g, self.cardinality))
        for rank in range(voters.shape[1]):
            out += table[voters[:, rank]]
        out /= np.maximum(counts, 1)[:, None]
        if scheme is VotingScheme.LOG_POOL:
            np.exp(out, out=out)
            out /= out.sum(axis=1, keepdims=True)
        # No applicable meta-rule: the naive path's uniform fallback.
        out[counts == 0] = 1.0 / self.cardinality
        return out

    def infer_many(
        self,
        reps: np.ndarray,
        v_choice: VoterChoice,
        v_scheme: VotingScheme,
    ) -> np.ndarray:
        """Algorithm 2 for a batch of evidence rows (uncached; callers memoize).

        ``reps`` is a ``(G, width)`` code matrix, typically one
        representative per distinct evidence signature; the head column is
        never read.  Returns the ``(G, cardinality)`` CPD matrix, row ``g``
        bit-identical to the naive path on ``reps[g]``.  Rows are processed
        in chunks under :data:`MATCH_CHUNK_BYTES`: match, drop dominated
        matches (BEST), then combine.
        """
        reps = np.asarray(reps)
        out = np.empty((reps.shape[0], self.cardinality))
        step = self._chunk_rows()
        for lo in range(0, reps.shape[0], step):
            voters, counts = self._voters(reps[lo : lo + step], v_choice)
            out[lo : lo + step] = self._combine_many(voters, counts, v_scheme)
        return out

    def infer(
        self,
        codes: np.ndarray,
        v_choice: VoterChoice,
        v_scheme: VotingScheme,
    ) -> np.ndarray:
        """Algorithm 2 for one evidence vector: a 1-row :meth:`infer_many`."""
        return self.infer_many(codes[None, :], v_choice, v_scheme)[0]

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
