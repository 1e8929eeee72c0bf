"""The compiled batch-inference engine: Algorithm 2 over batches of tuples.

The naive path (:mod:`repro.core.inference`) re-runs voter matching for
every tuple.  In real workloads most tuples share their *evidence
signature* — the projection of their known values onto the attributes any
meta-rule actually conditions on — and therefore share their voter set and
CPD.  :class:`BatchInferenceEngine` exploits this:

1. tuples are grouped by ``(head attribute, evidence signature)``;
2. the distinct groups a batch misses are answered together, per
   attribute, by one batched match, dominance filter and combine over the
   compiled rule matrix (:meth:`~repro.core.compiled.CompiledMRSL.infer_many`);
3. answers are memoized in a bounded LRU, so repeated batches skip even
   the vectorized work; the Gibbs hot loop reads them from per-attribute
   array memos (:meth:`BatchInferenceEngine.conditional_probs_batch`), so
   a whole batch of chain states costs a handful of NumPy calls.

Results are bit-for-bit identical to the naive path for every
``vChoice`` x ``vScheme`` combination — the naive implementation stays in
the tree as the correctness oracle (``--engine naive`` on the CLI, and the
equivalence test suite asserts agreement).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..probdb.distribution import Distribution
from ..relational.tuples import MISSING_CODE, RelTuple
from .compiled import CompiledModel, LRUCache
from .inference import VoterChoice, VotingScheme
from .mrsl import MRSLModel

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "DEFAULT_CPD_CACHE_SIZE",
    "validate_engine",
    "BatchInferenceEngine",
]

#: Recognized inference engine names.
ENGINES = ("naive", "compiled")

#: The engine used when callers do not choose one.
DEFAULT_ENGINE = "compiled"

#: Default bound on memoized CPDs.  Entries are small probability vectors,
#: so the default costs at most a few MB while covering every realistic
#: signature space; small runs behave exactly as an unbounded cache.
DEFAULT_CPD_CACHE_SIZE = 65536


def validate_engine(engine: str) -> str:
    """Normalize and validate an engine name."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def _cdf_rows(cpds: np.ndarray) -> np.ndarray:
    """Row-wise ``cumsum(p) / cumsum(p)[-1]``: ``Generator.choice``'s CDF."""
    cdfs = np.cumsum(cpds, axis=1)
    cdfs /= cdfs[:, -1:]
    return cdfs


#: Memo key past every packed signature (packed spaces stay below 2**63).
_SENTINEL = np.iinfo(np.int64).max


class _CPDMemo:
    """Packed signatures -> stacked CPD and CDF rows, for one attribute.

    ``keys`` is sorted and ends in :data:`_SENTINEL`, so one
    ``np.searchsorted`` plus one gather-and-compare finds a whole batch;
    ``slots`` maps each key to its row of ``cpds`` / ``cdfs``, which fill
    in insertion order and grow by doubling.
    """

    __slots__ = ("keys", "slots", "cpds", "cdfs")

    def __init__(self, cardinality: int):
        self.keys = np.array([_SENTINEL], dtype=np.int64)
        self.slots = np.zeros(1, dtype=np.intp)
        self.cpds = np.empty((16, cardinality))
        self.cdfs = np.empty((16, cardinality))

    def __len__(self) -> int:
        return self.keys.size - 1

    def find(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``packed`` in ``keys`` and a found mask."""
        pos = self.keys.searchsorted(packed)
        return pos, self.keys[pos] == packed

    def insert(self, keys: np.ndarray, cpds: np.ndarray) -> None:
        """Add sorted, absent ``keys`` with their CPD rows."""
        size, count = len(self), keys.size
        if size + count > self.cpds.shape[0]:
            capacity = max(2 * self.cpds.shape[0], size + count)
            for name in ("cpds", "cdfs"):
                grown = np.empty((capacity, self.cpds.shape[1]))
                grown[:size] = getattr(self, name)[:size]
                setattr(self, name, grown)
        self.cpds[size : size + count] = cpds
        self.cdfs[size : size + count] = _cdf_rows(cpds)
        at = np.searchsorted(self.keys, keys)
        self.keys = np.insert(self.keys, at, keys)
        self.slots = np.insert(
            self.slots, at, np.arange(size, size + count, dtype=np.intp)
        )


class BatchInferenceEngine:
    """Serves Algorithm 2 CPDs for batches of single-missing tuples.

    One engine wraps one :class:`MRSLModel`; per-attribute lattices are
    compiled lazily on first use.  The default voting configuration given at
    construction can be overridden per call.
    """

    def __init__(
        self,
        model: MRSLModel,
        v_choice: VoterChoice | str = VoterChoice.BEST,
        v_scheme: VotingScheme | str = VotingScheme.AVERAGED,
        cache_size: int | None = DEFAULT_CPD_CACHE_SIZE,
    ):
        self.model = model
        self.schema = model.schema
        self.v_choice = VoterChoice(v_choice)
        self.v_scheme = VotingScheme(v_scheme)
        self.compiled = CompiledModel(model)
        self.cache = LRUCache(cache_size)
        # Per-attribute mixed-radix multipliers for packing signature
        # columns into one int64 per row (None = space too large to pack;
        # the batch path then falls back to row-wise unique).
        self._sig_packers: dict[int, np.ndarray | None] = {}
        # (attr, vChoice, vScheme) -> array memo of the batch path; their
        # rows together (``_memo_rows``) stay within ``cache_size``.
        self._memos: dict[tuple, _CPDMemo] = {}
        self._memo_rows = 0
        #: distinct (attribute, signature, config) groups actually computed
        self.groups_computed = 0
        #: tuples served across all batch calls
        self.tuples_served = 0
        #: batch rows served by a memo that already held their signature
        self.memo_hits = 0
        #: memo resets because all memos together outgrew ``cache_size``
        self.memo_resets = 0

    # -- scalar entry points ---------------------------------------------------

    def infer_codes(
        self,
        t: RelTuple,
        attr: int | None = None,
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> np.ndarray:
        """CPD vector for one tuple's missing attribute (cached)."""
        if attr is None:
            missing = t.missing_positions
            if len(missing) != 1:
                raise ValueError(
                    f"expected exactly one missing attribute, tuple has "
                    f"{len(missing)}"
                )
            attr = missing[0]
        elif t.codes[attr] != MISSING_CODE:
            raise ValueError(
                f"tuple already assigns attribute {self.schema[attr].name!r}"
            )
        return self.conditional_probs(t.codes, attr, v_choice, v_scheme)

    def conditional_probs(
        self,
        codes: np.ndarray,
        attr: int,
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> np.ndarray:
        """CPD for ``attr`` given the other known codes (the Gibbs hot path).

        ``codes`` is a full code vector; position ``attr`` is treated as
        missing regardless of its content.
        """
        choice = self.v_choice if v_choice is None else VoterChoice(v_choice)
        scheme = self.v_scheme if v_scheme is None else VotingScheme(v_scheme)
        compiled = self.compiled[attr]
        # No masking needed: meta-rule bodies never mention their own head
        # attribute, so neither the signature nor the match reads codes[attr].
        key = (attr, choice, scheme, compiled.signature(codes))
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        probs = compiled.infer(codes, choice, scheme)
        probs.setflags(write=False)
        self.cache.put(key, probs)
        self.groups_computed += 1
        return probs

    # -- batch entry points ----------------------------------------------------

    def conditional_probs_batch(
        self,
        states: np.ndarray,
        attr: int,
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
        cumulative: bool = False,
    ) -> np.ndarray:
        """CPD rows for ``attr`` across a batch of chain states.

        ``states`` is an ``(N, width)`` integer matrix of full code vectors
        (column ``attr`` is treated as missing regardless of content) — the
        shape of a vectorized Gibbs ensemble's state.  Returns the
        ``(N, cardinality)`` matrix of per-row CPDs or, with
        ``cumulative=True``, of their normalized CDFs
        (``cumsum(p) / cumsum(p)[-1]``, the arithmetic of
        ``Generator.choice``), which is what an inverse-CDF draw reads.

        Each ``(attr, vChoice, vScheme)`` has an array memo: every row's
        signature columns are packed into one int64, looked up in the
        memo's sorted keys with one ``np.searchsorted``, and answered with
        one gather from its stacked CPD or CDF rows — O(1) Python work per
        call however many signatures it touches.  Signatures the memo
        lacks are deduplicated with one ``np.unique``; each is answered
        from the shared LRU (the scalar :meth:`conditional_probs` entries,
        so scalar and batch callers warm each other) or computed and put
        there.  All memos together hold at most ``cache_size`` signatures:
        a batch that would overflow that resets its own memo (and the
        others too, if that is not enough), counted in ``evictions``, which
        never changes a result since a CPD is a function of its signature.
        Signature spaces too wide to pack fall back to a row-wise
        ``np.unique``.
        """
        choice = self.v_choice if v_choice is None else VoterChoice(v_choice)
        scheme = self.v_scheme if v_scheme is None else VotingScheme(v_scheme)
        # int32 matches RelTuple code vectors, so signature bytes are
        # interchangeable with the scalar path's cache keys.
        states = np.ascontiguousarray(states, dtype=np.int32)
        self.tuples_served += states.shape[0]
        mult = self._sig_packer(attr)
        if mult is not None:
            return self._memo_lookup(
                states, states @ mult, attr, choice, scheme, cumulative
            )
        sigs = states[:, self.compiled[attr].signature_attrs]
        _, first, inverse = np.unique(
            sigs, axis=0, return_index=True, return_inverse=True
        )
        cpds = self._answer(states[first], attr, choice, scheme)
        if cumulative:
            cpds = _cdf_rows(cpds)
        return cpds[inverse.reshape(-1)]

    def _memo_lookup(
        self,
        states: np.ndarray,
        packed: np.ndarray,
        attr: int,
        choice: VoterChoice,
        scheme: VotingScheme,
        cumulative: bool,
    ) -> np.ndarray:
        """Gather ``packed`` signatures' rows, filling the memo's misses."""
        key = (attr, choice, scheme)
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos[key] = _CPDMemo(self.compiled[attr].cardinality)
        pos, found = memo.find(packed)
        if found.all():
            self.memo_hits += packed.size
        else:
            missed = np.flatnonzero(~found)
            new, first = np.unique(packed[missed], return_index=True)
            limit = self.cache.maxsize
            if limit is not None and self._memo_rows + new.size > limit:
                # Outgrown: start this memo over from the batch's own
                # signatures, dropping every other memo if that is not enough.
                self.memo_resets += 1
                self._memo_rows -= len(memo)
                memo = self._memos[key] = _CPDMemo(memo.cpds.shape[1])
                missed = np.arange(packed.size)
                new, first = np.unique(packed, return_index=True)
                if self._memo_rows + new.size > limit:
                    self._memos = {key: memo}
                    self._memo_rows = 0
            self.memo_hits += packed.size - missed.size
            reps = states[missed[first]]
            memo.insert(new, self._answer(reps, attr, choice, scheme))
            self._memo_rows += new.size
            pos = memo.keys.searchsorted(packed)
            if limit is not None and self._memo_rows > limit:
                del self._memos[key]  # one batch alone exceeds the bound
                self._memo_rows = 0
        return (memo.cdfs if cumulative else memo.cpds)[memo.slots[pos]]

    def _answer(
        self,
        reps: np.ndarray,
        attr: int,
        choice: VoterChoice,
        scheme: VotingScheme,
    ) -> np.ndarray:
        """CPD rows of distinct-signature states, stacked."""
        rows = self._answer_rows(reps, attr, choice, scheme)
        out = np.empty((len(rows), self.compiled[attr].cardinality))
        for j, row in enumerate(rows):
            out[j] = row
        return out

    def _answer_rows(
        self,
        reps: np.ndarray,
        attr: int,
        choice: VoterChoice,
        scheme: VotingScheme,
    ) -> list[np.ndarray]:
        """One read-only CPD row per distinct-signature representative.

        Each signature is looked up in the shared LRU under the scalar
        :meth:`conditional_probs` key, so both paths share entries; the
        misses are answered together by one
        :meth:`~repro.core.compiled.CompiledMRSL.infer_many` call.
        """
        compiled = self.compiled[attr]
        # int32 rows of a contiguous matrix: the same bytes as
        # compiled.signature(codes) on each representative.
        sigs = np.ascontiguousarray(reps[:, compiled.signature_attrs], np.int32)
        keys = [(attr, choice, scheme, sig.tobytes()) for sig in sigs]
        rows = [self.cache.get(key) for key in keys]
        missed = [j for j, row in enumerate(rows) if row is None]
        if missed:
            computed = compiled.infer_many(reps[missed], choice, scheme)
            computed.setflags(write=False)
            for j, probs in zip(missed, computed):
                rows[j] = probs
                self.cache.put(keys[j], probs)
            self.groups_computed += len(missed)
        return rows

    def _sig_packer(self, attr: int) -> np.ndarray | None:
        """Per-column multipliers packing a code row's signature into int64.

        ``codes @ mult`` is a mixed-radix number over the signature
        columns, with zero weight on every other column.  Radix
        ``cardinality + 1`` gives each column the digits
        ``MISSING_CODE`` (-1) to ``cardinality - 1``, so packing is
        injective; ``None`` when the packed space overflows int64
        (pathologically wide signatures).
        """
        try:
            return self._sig_packers[attr]
        except KeyError:
            pass
        mult: np.ndarray | None = np.zeros(len(self.schema), dtype=np.int64)
        scale = 1  # Python int: exact, no wraparound
        for a in self.compiled[attr].signature_attrs[::-1]:
            mult[a] = scale
            scale *= self.schema[int(a)].cardinality + 1
            if scale >= 2**63:
                mult = None  # packed codes would overflow int64 and collide
                break
        self._sig_packers[attr] = mult
        return mult

    def infer_batch_codes(
        self,
        tuples: Sequence[RelTuple],
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> list[np.ndarray]:
        """One CPD vector per tuple; every tuple missing exactly one attribute.

        Per missing attribute the batch is deduplicated on evidence
        signature with one ``np.unique``; signatures the LRU lacks are
        answered by one batched compiled match + combine, so repeats
        within and across calls are free.  Tuples sharing a signature get
        the same read-only array.
        """
        choice = self.v_choice if v_choice is None else VoterChoice(v_choice)
        scheme = self.v_scheme if v_scheme is None else VotingScheme(v_scheme)
        out: list[np.ndarray | None] = [None] * len(tuples)
        if tuples:
            codes = np.stack([t.codes for t in tuples])
            missing = codes == MISSING_CODE
            counts = missing.sum(axis=1)
            bad = np.flatnonzero(counts != 1)
            if bad.size:
                raise ValueError(
                    f"expected exactly one missing attribute, tuple has "
                    f"{counts[bad[0]]}"
                )
            attrs = missing.argmax(axis=1)
            for attr in np.unique(attrs).tolist():
                positions = np.flatnonzero(attrs == attr)
                group = codes[positions]
                sigs = group[:, self.compiled[attr].signature_attrs]
                _, first, inverse = np.unique(
                    sigs, axis=0, return_index=True, return_inverse=True
                )
                rows = self._answer_rows(group[first], attr, choice, scheme)
                for pos, k in zip(positions.tolist(), inverse.reshape(-1).tolist()):
                    out[pos] = rows[k]
        self.tuples_served += len(tuples)
        return out  # type: ignore[return-value]

    def infer_batch(
        self,
        tuples: Sequence[RelTuple],
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> list[Distribution]:
        """Batch Algorithm 2 returning value-level distributions.

        Tuples sharing an evidence signature receive the *same* (immutable)
        :class:`Distribution` object, so wrapping costs one construction per
        distinct CPD rather than one per tuple.
        """
        cpds = self.infer_batch_codes(tuples, v_choice, v_scheme)
        shared: dict[tuple[int, int], Distribution] = {}
        out = []
        for t, probs in zip(tuples, cpds):
            attr = t.missing_positions[0]
            key = (attr, id(probs))
            dist = shared.get(key)
            if dist is None:
                dist = Distribution(self.schema[attr].domain, probs)
                shared[key] = dist
            out.append(dist)
        return out

    # -- diagnostics -----------------------------------------------------------

    def cache_info(self) -> dict[str, int | None]:
        """CPD cache counters plus group/tuple totals, for reporting.

        ``hits`` adds the LRU's hits to the batch rows a memo already held
        (memo hits count as rows served, LRU hits as distinct
        signatures); ``misses`` and ``groups_computed`` count signatures
        computed; ``evictions`` adds LRU evictions to memo resets.
        """
        info = self.cache.info()
        info["hits"] += self.memo_hits
        info["evictions"] += self.memo_resets
        info["groups_computed"] = self.groups_computed
        info["tuples_served"] = self.tuples_served
        return info

    def __repr__(self) -> str:
        return (
            f"BatchInferenceEngine({self.model!r}, vChoice="
            f"{self.v_choice.value}, vScheme={self.v_scheme.value})"
        )
