"""Compiled meta-rule semi-lattices: flat NumPy structures for batch voting.

:class:`~repro.core.mrsl.MRSL` answers Algorithm 2's matching queries by
enumerating ``combinations()`` of a tuple's known items — fine for one
tuple, wasteful for a workload that asks the same evidence signature over
and over.  This module *compiles* a semi-lattice into flat arrays so that
Algorithm 2 runs for a whole batch of distinct signatures at once
(:meth:`CompiledMRSL.infer_many`):

* a stacked CPD matrix (one row per meta-rule) and a weight vector;
* a *shape index*: a body's shape is its attribute set, and every rule is
  keyed by ``(shape, values)``, so "which meta-rules match this evidence?"
  is a gather of each row's candidate key for every shape (one pass per
  body slot) and one key lookup — ``(G, Sh)`` work for ``G`` evidence
  rows and ``Sh`` distinct shapes, however many rules there are;
* per shape, its proper super-shapes: for one row, body containment is
  shape containment, so the *best* (most specific) filter is one gather
  and one ``np.logical_or.reduceat`` over the found-shape matrix;
* a body -> row index keyed by itemset for point lookups.

Rules are stored in the canonical ``(body_size, body)`` order — exactly the
order :meth:`MRSL.matching` enumerates them — so combining rows in ascending
index order reproduces the naive path's floating-point results bit for bit.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from itertools import chain, combinations
from typing import Hashable, Iterator

import numpy as np

from ..probdb.distribution import DEFAULT_SMOOTHING_FLOOR
from .inference import VoterChoice, VotingScheme, _combine_stack
from .itemsets import Itemset
from .mrsl import MRSL, MRSLModel

__all__ = [
    "LRUCache",
    "CompiledMRSL",
    "CompiledModel",
    "DENSE_INDEX_CAP",
    "MATCH_CHUNK_BYTES",
]

#: Byte budget of the ``(rows, Sh, maxBody)`` int32 gather one matching
#: chunk makes (``Sh``: the lattice's distinct body shapes).
#: :meth:`CompiledMRSL.infer_many` splits its rows into chunks under it, so
#: its temporaries (shape keys, rule ids, voter matrix) grow with the
#: chunk, not the batch.
MATCH_CHUNK_BYTES = 1 << 20

#: Key spaces of at most this many keys get a dense key -> slot index
#: (8 bytes per key): a lattice's shape keys, and a signature memo's packed
#: signatures (:class:`~repro.core.engine.BatchInferenceEngine`).  Wider
#: spaces keep sorted keys.
DENSE_INDEX_CAP = 1 << 16


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
        "shapes",
        "_body_index",
        "_shape_attrs",
        "_key_mult",
        "_key_cap",
        "_key_base",
        "_key_pad",
        "_key_index",
        "_keys",
        "_key_rules",
        "_supers",
        "_sub_starts",
        "_dominable",
        "_sum_tables",
        "_digest",
    )

    def __init__(self, lattice: MRSL, cardinality: int):
        self.head_attribute = lattice.head_attribute
        self.cardinality = cardinality
        rules = list(lattice)
        n = len(rules)
        bodies = [m.body for m in rules]
        sizes = np.fromiter(map(len, bodies), dtype=np.int64, count=n)
        width = int(sizes.max(initial=0))
        total = int(sizes.sum())
        items = np.fromiter(
            chain.from_iterable(chain.from_iterable(bodies)),
            dtype=np.int64,
            count=2 * total,
        )
        # Rule i's k-th body item fills slot (i, k): one scatter per matrix.
        rule = np.repeat(np.arange(n), sizes)
        slot = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rule_attrs = np.full((n, width), -1, dtype=np.int64)
        rule_vals = np.zeros((n, width), dtype=np.int64)
        rule_attrs[rule, slot] = items[0::2]
        rule_vals[rule, slot] = items[1::2]

        # Canonical order: by (body size, body) — the order MRSL.matching
        # enumerates matches in, so ascending row index == naive voter order.
        # Bodies of one size compare item by item, (attribute, value) pairs
        # in turn: one stable lexsort, most significant key last.
        keys = np.empty((2 * width, n), dtype=np.int64)
        keys[0::2] = rule_attrs.T
        keys[1::2] = rule_vals.T
        order = np.lexsort(np.vstack([keys[::-1], sizes[None, :]]))
        rule_attrs = rule_attrs[order]
        rule_vals = rule_vals[order]
        rules = [rules[i] for i in order.tolist()]

        self.bodies: tuple[Itemset, ...] = tuple(m.body for m in rules)
        self._body_index: dict[Itemset, int] = dict(zip(self.bodies, range(n)))
        if n:
            self.cpds = np.concatenate([m.probs for m in rules]).reshape(n, -1)
        else:
            self.cpds = np.empty((0, cardinality), dtype=np.float64)
        self.weights = np.array([m.weight for m in rules], dtype=np.float64)
        self.body_sizes = sizes[order].astype(np.int32)
        # Sizes ascend, so the root (the empty body) is row 0 when present.
        self.root_index = 0 if n and sizes[order[0]] == 0 else -1

        # Per-scheme summands of the rank-ordered combine, each with one
        # extra all-zero row (index R) that pads short voter lists.  Filled
        # on first use of the scheme.
        self._sum_tables: dict[VotingScheme, np.ndarray] = {}
        self._digest: str | None = None

        # Attributes mentioned by any body: the evidence *signature* — two
        # code vectors agreeing on these attributes have identical voter sets.
        self.signature_attrs = np.unique(items[0::2]).astype(np.intp)
        self._build_shape_index(rule_attrs, rule_vals)

    def digest(self) -> str:
        """sha256 hex digest over the canonical rule order: bodies, CPD
        bytes, weight bytes.  Computed once per lattice, so processes
        forked after it was computed read it without hashing again."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(repr(self.bodies).encode())
            h.update(np.ascontiguousarray(self.cpds).tobytes())
            h.update(np.ascontiguousarray(self.weights).tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def _build_shape_index(self, rule_attrs: np.ndarray, rule_vals: np.ndarray) -> None:
        """Key every rule by ``(shape, values)``, its body's attribute set
        and the values on it, and list each shape's proper super-shapes.

        ``rule_attrs``/``rule_vals`` hold each rule's body items, one row
        per rule in row order, padded with attribute -1 and value 0.  A
        rule's key is a mixed-radix number with one digit per body item,
        offset by its shape's base.  Attribute ``a``'s digit is its value
        plus one, clipped to ``top[a] + 2`` (``top[a]``: the largest value
        any body gives ``a``), so :data:`MISSING_CODE` reads digit 0 and a
        value no body uses reads ``top[a] + 2``: evidence keys built the
        same way always land in the key space and match exactly the bodies
        the row agrees with.  The space is sized in Python ints; up to
        :data:`DENSE_INDEX_CAP` keys, ``_key_index`` maps every key to its
        rule (``R`` where absent); up to ``2**63`` keys stay sorted in
        ``_keys``.  A wider space keys on int32 ``(shape, values...)`` rows
        viewed as one ``np.void`` item, sorted the same way.
        """
        n, width = rule_attrs.shape
        sizes = self.body_sizes
        present = rule_attrs >= 0
        attrs_used, vals_used = rule_attrs[present], rule_vals[present]
        # Shapes in (size, attrs) order, the order np.unique sorts
        # (size, attrs..., -1 padding) rows in.  A row's matches, one per
        # shape, then ascend in rule order too: one row fixes each
        # attribute's value, so its bodies compare as their shapes do.
        found, rule_shape = np.unique(
            np.column_stack([sizes, rule_attrs]).reshape(n, 1 + width),
            axis=0,
            return_inverse=True,
        )
        rule_shape = rule_shape.reshape(n)
        self.shapes = tuple(tuple(row[1 : 1 + row[0]]) for row in found.tolist())
        number = {shape: i for i, shape in enumerate(self.shapes)}
        sh = len(self.shapes)
        # Slot k of shape s reads attribute shapes[s][k]; padding slots read
        # attribute 0 and are zeroed (multiplier 0, or masked for void keys).
        pad = found[:, 1:] < 0
        self._shape_attrs = np.where(pad, 0, found[:, 1:]).astype(np.intp)

        top = np.zeros(int(attrs_used.max(initial=-1)) + 1, dtype=np.int64)
        np.maximum.at(top, attrs_used, vals_used)
        top = top.tolist()
        mults, bases, space = [], [], 0  # Python ints: exact, no wraparound
        for shape in self.shapes:
            scale, mult = 1, [0] * width
            for k in range(len(shape) - 1, -1, -1):
                mult[k] = scale
                scale *= top[shape[k]] + 3
            mults.append(mult)
            bases.append(space)
            space += scale

        self._key_index = self._keys = self._key_rules = None
        if space < 2**63:
            self._key_pad = None
            self._key_mult = np.array(mults, dtype=np.int64).reshape(sh, width)
            self._key_cap = np.array(
                [[top[a] + 1 for a in shape] + [0] * (width - len(shape))
                 for shape in self.shapes],
                dtype=np.int64,
            ).reshape(sh, width)
            # Folding every digit's +1 into the base leaves one
            # multiply-add per slot for a lookup.
            self._key_base = np.array(bases, dtype=np.int64) + self._key_mult.sum(
                axis=1
            )
            keys = self._key_base[rule_shape] + (
                rule_vals * self._key_mult[rule_shape]
            ).sum(axis=1)
            if space <= DENSE_INDEX_CAP:
                self._key_index = np.full(space, n, dtype=np.intp)
                self._key_index[keys] = np.arange(n)
        else:
            self._key_mult = self._key_cap = self._key_base = None
            self._key_pad = pad
            rows = np.column_stack([rule_shape, rule_vals]).astype(np.int32)
            keys = rows.view(self._void_dtype()).reshape(n)
        if self._key_index is None:
            self._key_rules = np.argsort(keys, kind="stable")
            self._keys = keys[self._key_rules]

        # BEST: for one row, body containment is shape containment, so a
        # found shape is dropped when any proper super-shape is found too.
        # Pairs (sub, super) sorted by sub: at most 2**maxBody - 1 subs per
        # super, as many as the supers' existing proper subsets.
        pairs = sorted(
            (number[sub], s)
            for s, shape in enumerate(self.shapes)
            for size in range(len(shape))
            for sub in combinations(shape, size)
            if sub in number
        )
        subs = np.array([p[0] for p in pairs], dtype=np.intp)
        self._supers = np.array([p[1] for p in pairs], dtype=np.intp)
        self._dominable, self._sub_starts = np.unique(subs, return_index=True)

    def _void_dtype(self) -> np.dtype:
        return np.dtype((np.void, 4 * (1 + self._shape_attrs.shape[1])))

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
        per_row = 4 * max(self._shape_attrs.size, 1)
        return max(1, MATCH_CHUNK_BYTES // per_row)

    def _rule_ids(self, reps: np.ndarray) -> np.ndarray:
        """``(G, Sh)`` matrix: the rule whose body row ``g`` holds on shape
        ``s``, or ``R`` (the sum tables' zero row) when no body does."""
        g, sh = reps.shape[0], len(self.shapes)
        if self._key_pad is None:
            keys = np.broadcast_to(self._key_base, (g, sh)).copy()
            for k in range(self._shape_attrs.shape[1]):
                keys += (
                    np.minimum(reps[:, self._shape_attrs[:, k]], self._key_cap[:, k])
                    * self._key_mult[:, k]
                )
        else:
            rows = np.empty((g, sh, 1 + self._shape_attrs.shape[1]), dtype=np.int32)
            rows[:, :, 0] = np.arange(sh)
            rows[:, :, 1:] = np.where(self._key_pad, 0, reps[:, self._shape_attrs])
            keys = rows.view(self._void_dtype()).reshape(g, sh)
        if self._key_index is not None:
            return self._key_index.take(keys)
        n = len(self)
        pos = self._keys.searchsorted(keys).clip(max=n - 1)
        return np.where(self._keys[pos] == keys, self._key_rules[pos], n)

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
        n = len(self)
        ids = self._rule_ids(reps)
        if v_choice is VoterChoice.BEST and self._supers.size:
            found = ids[:, self._supers] != n
            dominated = np.logical_or.reduceat(found, self._sub_starts, axis=1)
            ids[:, self._dominable] = np.where(
                dominated, n, ids[:, self._dominable]
            )
        counts = np.count_nonzero(ids != n, axis=1)
        # Found ids ascend along each row already; R sorts last.
        ids.sort(axis=1)
        return ids[:, : counts.max(initial=0)], counts

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
        in chunks under :data:`MATCH_CHUNK_BYTES`: look up each row's rule
        per shape, drop shapes a found super-shape dominates (BEST), then
        combine.
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
    """Lazy per-attribute compilation of an :class:`MRSLModel`; the
    model's own copy is :attr:`MRSLModel.compiled`."""

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
