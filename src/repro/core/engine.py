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
3. answers are memoized in one bounded array memo per ``(attribute,
   vChoice, vScheme)`` (:class:`_CPDMemo`), the only CPD store: the scalar
   :meth:`~BatchInferenceEngine.conditional_probs`, the grouped
   :meth:`~BatchInferenceEngine.infer_grouped` and the batch
   :meth:`~BatchInferenceEngine.conditional_probs_batch` all read and fill
   it, so repeated signatures skip even the vectorized work, and the Gibbs
   hot loop reads a whole batch of chain states (or, on its rank-fused
   path, every live memo at once) in a handful of NumPy calls.

Results are bit-for-bit identical to the naive path for every
``vChoice`` x ``vScheme`` combination — the naive implementation stays in
the tree as the correctness oracle (``--engine naive`` on the CLI, and the
equivalence test suite asserts agreement).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..probdb.distribution import Distribution
from ..relational.tuples import MISSING_CODE, RelTuple
from .compiled import DENSE_INDEX_CAP
from .inference import VoterChoice, VotingScheme
from .mrsl import MRSLModel

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "DEFAULT_CPD_CACHE_SIZE",
    "validate_engine",
    "BatchInferenceEngine",
    "unique_rows",
]

#: Recognized inference engine names.
ENGINES = ("naive", "compiled")

#: The engine used when callers do not choose one.
DEFAULT_ENGINE = "compiled"

#: Default bound on the signatures all of an engine's memos hold together.
#: Each keeps a CPD row and a CDF row (8 bytes per domain value each), so
#: the default costs a few MB at census cardinalities while covering every
#: realistic signature space; small runs behave exactly as an unbounded
#: cache.
DEFAULT_CPD_CACHE_SIZE = 65536


def validate_engine(engine: str) -> str:
    """Normalize and validate an engine name."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def unique_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` over the rows of an integer matrix.

    Returns ``(first, inverse)``: each distinct row's first position and
    each row's distinct number.  Distinct rows are numbered in memcmp order
    of their bytes, the order of ``sorted(row.tobytes() for row in
    matrix)``; all rows of a zero-width matrix are one row.

    When every code lies between ``MISSING_CODE`` and 255, an integer's
    bytes compare as its value does, except that ``MISSING_CODE`` (all
    ones) sorts above every other code.  Such a row then packs into one
    mixed-radix 64-bit key, first column most significant, whose digit is
    the code, ``MISSING_CODE`` mapped to its column's largest code plus
    one, provided the product of the radices (column maxima plus two)
    stays below ``2**62``; keys sort as the rows' bytes do, and sorting
    them is much cheaper.  Other matrices sort one void view of the rows.
    """
    n, width = matrix.shape
    if width == 0:
        return np.zeros(min(n, 1), dtype=np.intp), np.zeros(n, dtype=np.intp)
    top = matrix.max(axis=0, initial=MISSING_CODE).tolist()
    # Place values, last column first, and the radix product, in Python
    # ints: a few columns cost less here than in array calls.
    place, span = [], 1
    for code in reversed(top):
        place.append(span)
        span *= code + 2
    if (
        max(top) <= 255
        and span < 2**62
        and matrix.min(initial=MISSING_CODE) >= MISSING_CODE
    ):
        # Read unsigned, MISSING_CODE is the largest value, so the minimum
        # with a column's largest code plus one is the column's digit; one
        # matrix-vector product then packs every row (no division).
        unsigned = matrix.view(f"u{matrix.itemsize}")
        digits = np.minimum(unsigned, np.add(top, 1).astype(unsigned.dtype))
        keys = digits.dot(np.array(place[::-1], dtype=np.uint64))
    else:
        matrix = np.ascontiguousarray(matrix)
        keys = matrix.view(np.dtype((np.void, matrix.itemsize * width))).reshape(n)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.reshape(n)


def _cdf_rows(cpds: np.ndarray) -> np.ndarray:
    """Row-wise ``cumsum(p) / cumsum(p)[-1]``: ``Generator.choice``'s CDF.

    A row summing to zero gets a NaN CDF without a warning; the kernels
    reject such a CPD row before anything draws from it.
    """
    cdfs = np.cumsum(cpds, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cdfs /= cdfs[:, -1:]
    return cdfs


#: The slot a memo reports for a signature it lacks: past every row, so
#: gathering memo rows with it raises ``IndexError``.
_ABSENT = np.iinfo(np.intp).max


class _CPDMemo:
    """Signature keys -> stacked CPD and CDF rows, for one attribute.

    ``states.dot(mult)`` packs code rows' signature columns into integer
    keys (see :meth:`BatchInferenceEngine._sig_packer`); a space of
    ``space`` signatures packs to ``space`` consecutive integers, the
    all-``MISSING_CODE`` signature lowest.  Up to :data:`DENSE_INDEX_CAP`
    keys, ``index`` maps every key straight to its slot, so a lookup is one
    ``take``.  It is indexed by the key modulo ``space``: a bijection on
    consecutive integers, which shifts the keys below zero (those with
    ``MISSING_CODE`` digits) into range without a separate add.  Wider
    spaces keep ``keys`` sorted, so one ``np.searchsorted`` plus one
    gather-and-compare finds a whole batch, and ``slots`` maps each key to
    its slot.  A space too wide to pack (``packer`` is ``None``, ``mult``
    too) keys on each row's int32 signature columns viewed as one
    ``np.void`` item, on sorted keys the same way.  Slots are rows of
    ``cpds`` / ``cdfs``, which fill in insertion order and grow by
    doubling; ``cpds`` stays read-only, so a row handed out needs no copy.
    A key the memo lacks has slot :data:`_ABSENT`.
    """

    __slots__ = ("mult", "attrs", "index", "keys", "slots", "size", "cpds", "cdfs")

    def __init__(self, packer: tuple | None, attrs: np.ndarray, cardinality: int):
        self.mult, self.attrs, self.index = None, attrs, None
        if packer is None:
            dtype = np.dtype((np.void, 4 * attrs.size))
        else:
            self.mult, space = packer
            dtype = self.mult.dtype
            if space <= DENSE_INDEX_CAP:
                self.index = np.full(space, _ABSENT, dtype=np.intp)
        if self.index is None:
            self.keys = np.empty(0, dtype=dtype)
            self.slots = np.empty(0, dtype=np.intp)
        self.size = 0
        self.cpds = np.empty((16, cardinality))
        self.cdfs = np.empty((16, cardinality))

    def __len__(self) -> int:
        return self.size

    def copy(self) -> "_CPDMemo":
        """A memo holding the same signatures, sharing no array that
        either memo writes."""
        memo = _CPDMemo.__new__(_CPDMemo)
        memo.mult, memo.attrs, memo.size = self.mult, self.attrs, self.size
        if self.index is None:
            # Inserts replace ``keys`` and ``slots``; they never write them.
            memo.index, memo.keys, memo.slots = None, self.keys, self.slots
        else:
            memo.index = self.index.copy()
        memo.cpds = self.cpds.copy()
        memo.cpds.setflags(write=False)
        memo.cdfs = self.cdfs.copy()
        return memo

    def pack(self, states: np.ndarray) -> np.ndarray:
        """Each code row's key: its packed signature, or its signature's
        int32 bytes when the space is too wide to pack."""
        if self.mult is not None:
            return states.dot(self.mult)
        sigs = np.ascontiguousarray(states[:, self.attrs], dtype=np.int32)
        return sigs.view(self.keys.dtype).reshape(-1)

    def find(self, packed: np.ndarray) -> np.ndarray:
        """The slot of every ``packed`` key, :data:`_ABSENT` where lacking."""
        if self.index is not None:
            return self.index.take(packed, mode="wrap")
        if not self.size:
            return np.full(packed.size, _ABSENT, dtype=np.intp)
        pos = self.keys.searchsorted(packed).clip(max=self.size - 1)
        return np.where(self.keys[pos] == packed, self.slots[pos], _ABSENT)

    def insert(self, keys: np.ndarray, cpds: np.ndarray) -> None:
        """Add sorted, absent ``keys`` with their CPD rows."""
        size, count = self.size, keys.size
        if size + count > self.cpds.shape[0]:
            capacity = max(2 * self.cpds.shape[0], size + count)
            for name in ("cpds", "cdfs"):
                grown = np.empty((capacity, self.cpds.shape[1]))
                grown[:size] = getattr(self, name)[:size]
                setattr(self, name, grown)
        # Rows already handed out are never rewritten: only new slots are.
        self.cpds.setflags(write=True)
        self.cpds[size : size + count] = cpds
        self.cpds.setflags(write=False)
        self.cdfs[size : size + count] = _cdf_rows(cpds)
        slots = np.arange(size, size + count, dtype=np.intp)
        if self.index is not None:
            self.index.put(keys, slots, mode="wrap")
        else:
            at = self.keys.searchsorted(keys)
            self.keys = np.insert(self.keys, at, keys)
            self.slots = np.insert(self.slots, at, slots)
        self.size += count


class BatchInferenceEngine:
    """Serves Algorithm 2 CPDs for batches of single-missing tuples.

    One engine wraps one :class:`MRSLModel` and reads its lattices from
    the model's own :attr:`MRSLModel.compiled`, so every engine over a
    model shares one compile; the CPD memos are the engine's own.  The
    default voting configuration given at construction can be overridden
    per call.  ``cache_size`` bounds the signatures all memos hold
    together (``None``: unbounded).
    """

    def __init__(
        self,
        model: MRSLModel,
        v_choice: VoterChoice | str = VoterChoice.BEST,
        v_scheme: VotingScheme | str = VotingScheme.AVERAGED,
        cache_size: int | None = DEFAULT_CPD_CACHE_SIZE,
    ):
        if cache_size is not None and cache_size < 1:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.model = model
        self.schema = model.schema
        self.v_choice = VoterChoice(v_choice)
        self.v_scheme = VotingScheme(v_scheme)
        self.compiled = model.compiled
        self.cache_size = cache_size
        # Per-attribute mixed-radix multipliers for packing signature
        # columns into one integer per row, with the packed space's size
        # (None = space too large to pack; its memo then keys on bytes).
        self._sig_packers: dict[int, tuple[np.ndarray, int] | None] = {}
        # (attr, vChoice, vScheme) -> array memo, the engine's only CPD
        # store; their rows together (``_memo_rows``) stay within
        # ``cache_size``.
        self._memos: dict[tuple, _CPDMemo] = {}
        self._memo_rows = 0
        #: distinct (attribute, signature, config) groups actually computed
        self.groups_computed = 0
        #: tuples served across all batch calls
        self.tuples_served = 0
        #: rows served by a memo that already held their signature
        self.memo_hits = 0
        #: memo resets because all memos together outgrew ``cache_size``
        self.memo_resets = 0

    def copy(self) -> "BatchInferenceEngine":
        """An engine over the same model whose memos start as copies of
        this one's; its counters start at zero."""
        engine = BatchInferenceEngine(
            self.model, self.v_choice, self.v_scheme, self.cache_size
        )
        engine._sig_packers = dict(self._sig_packers)
        engine._memos = {key: memo.copy() for key, memo in self._memos.items()}
        engine._memo_rows = self._memo_rows
        return engine

    def _voting(
        self,
        v_choice: VoterChoice | str | None,
        v_scheme: VotingScheme | str | None,
    ) -> tuple[VoterChoice, VotingScheme]:
        """A call's voting config: the engine default where ``None``.

        Enum members pass through without an ``Enum(...)`` call — the Gibbs
        sweep resolves its config once and then calls per (sweep,
        attribute).
        """
        if type(v_choice) is not VoterChoice:
            v_choice = self.v_choice if v_choice is None else VoterChoice(v_choice)
        if type(v_scheme) is not VotingScheme:
            v_scheme = self.v_scheme if v_scheme is None else VotingScheme(v_scheme)
        return v_choice, v_scheme

    # -- scalar entry points ---------------------------------------------------

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
        choice, scheme = self._voting(v_choice, v_scheme)
        # No masking needed: meta-rule bodies never mention their own head
        # attribute, so neither the signature nor the match reads codes[attr].
        memo = self._memos.get((attr, choice, scheme))
        if memo is not None and memo.index is not None:
            # Keys lie within (-space, space): Python indexing wraps them
            # as ``take(mode="wrap")`` does.
            slot = memo.index.item(codes.dot(memo.mult))
            if slot != _ABSENT:
                self.memo_hits += 1
                return memo.cpds[slot]
        memo, slots = self._memo_slots(codes[None], attr, choice, scheme)
        return memo.cpds[slots[0]]

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

        Each ``(attr, vChoice, vScheme)`` has an array memo
        (:class:`_CPDMemo`), shared with the scalar and grouped entry
        points: every row's signature columns are packed into one integer,
        looked up in the memo's dense index (one ``take``) or, past
        :data:`DENSE_INDEX_CAP` keys, its sorted keys (one
        ``np.searchsorted``), and answered with one gather from its stacked
        CPD or CDF rows — O(1) Python work per call however many
        signatures it touches.  Signature spaces too wide to pack key on
        their bytes instead.  Signatures the memo lacks are deduplicated
        with one ``np.unique`` and computed together.  All memos together
        hold at most ``cache_size`` signatures: a batch that would overflow
        that resets its own memo (and the others too, if that is not
        enough), counted in ``evictions``, which never changes a result
        since a CPD is a function of its signature.
        """
        choice, scheme = self._voting(v_choice, v_scheme)
        states = np.asarray(states)
        self.tuples_served += states.shape[0]
        memo, slots = self._memo_slots(states, attr, choice, scheme)
        return (memo.cdfs if cumulative else memo.cpds)[slots]

    def live_memo(
        self, attr: int, choice: VoterChoice, scheme: VotingScheme
    ) -> _CPDMemo | None:
        """The packed-key memo the engine reads for ``attr`` now.

        ``None`` until a call creates it, after a bound drops it, and for
        signature spaces too wide to pack (their memos key on bytes, which
        a rank-fused Gibbs sweep cannot pack); a reset replaces it with a
        new object.
        """
        memo = self._memos.get((attr, choice, scheme))
        return None if memo is None or memo.mult is None else memo

    def packs_dense(self, attr: int) -> bool:
        """Whether ``attr``'s memo keys its signatures in a dense index,
        which a rank-fused Gibbs sweep reads."""
        packer = self._sig_packer(attr)
        return packer is not None and packer[1] <= DENSE_INDEX_CAP

    def fill(
        self,
        batches: Sequence[tuple[int, np.ndarray]],
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> bool:
        """Compute every signature of the ``(attr, states)`` batches, one
        per attribute, that no memo holds: all of them or none.

        ``states`` are full code rows, as :meth:`conditional_probs_batch`
        takes them.  Declines, changing nothing, when the new signatures
        would not fit within ``cache_size`` beside the rows the memos
        hold, so a fill never resets a memo.  Counts only the groups it
        computes: it serves no row, so ``hits`` and ``tuples_served`` stay.
        """
        choice, scheme = self._voting(v_choice, v_scheme)
        fills = []
        for attr, states in batches:
            key = (attr, choice, scheme)
            memo = self._memos.get(key)
            if memo is None:
                memo = self._new_memo(attr)
            packed = memo.pack(states)
            absent = np.flatnonzero(memo.find(packed) == _ABSENT)
            new, first = np.unique(packed[absent], return_index=True)
            fills.append((key, memo, new, states[absent[first]]))
        rows = self._memo_rows + sum(new.size for _, _, new, _ in fills)
        if self.cache_size is not None and rows > self.cache_size:
            return False
        for key, memo, new, reps in fills:
            if new.size:
                memo.insert(new, self._answer(reps, *key))
                self._memos[key] = memo
        self._memo_rows = rows
        return True

    def _new_memo(self, attr: int) -> _CPDMemo:
        compiled = self.compiled[attr]
        return _CPDMemo(
            self._sig_packer(attr), compiled.signature_attrs, compiled.cardinality
        )

    def _memo_slots(
        self,
        states: np.ndarray,
        attr: int,
        choice: VoterChoice,
        scheme: VotingScheme,
    ) -> tuple[_CPDMemo, np.ndarray]:
        """The memo holding every row's signature and each row's slot in
        it, after filling the memo's misses."""
        key = (attr, choice, scheme)
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos[key] = self._new_memo(attr)
        packed = memo.pack(states)
        slots = memo.find(packed)
        absent = slots == _ABSENT
        if not absent.any():
            self.memo_hits += packed.size
            return memo, slots
        missed = np.flatnonzero(absent)
        new, first = np.unique(packed[missed], return_index=True)
        limit = self.cache_size
        if limit is not None and self._memo_rows + new.size > limit:
            # Outgrown: start this memo over from the batch's own
            # signatures, dropping every other memo if that is not enough.
            self.memo_resets += 1
            self._memo_rows -= len(memo)
            memo = self._memos[key] = self._new_memo(attr)
            missed = np.arange(packed.size)
            new, first = np.unique(packed, return_index=True)
            if self._memo_rows + new.size > limit:
                self._memos = {key: memo}
                self._memo_rows = 0
        self.memo_hits += packed.size - missed.size
        reps = states[missed[first]]
        memo.insert(new, self._answer(reps, attr, choice, scheme))
        self._memo_rows += new.size
        if limit is not None and self._memo_rows > limit:
            del self._memos[key]  # one batch alone exceeds the bound
            self._memo_rows = 0
        return memo, memo.find(packed)

    def _answer(
        self,
        reps: np.ndarray,
        attr: int,
        choice: VoterChoice,
        scheme: VotingScheme,
    ) -> np.ndarray:
        """CPD rows of distinct-signature states, computed together."""
        self.groups_computed += reps.shape[0]
        return self.compiled[attr].infer_many(reps, choice, scheme)

    def _sig_packer(self, attr: int) -> tuple[np.ndarray, int] | None:
        """Per-column multipliers packing a code row's signature into one int.

        ``codes @ mult`` is a mixed-radix number over the signature
        columns, with zero weight on every other column.  Radix
        ``cardinality + 1`` gives each column the digits
        ``MISSING_CODE`` (-1) to ``cardinality - 1``, so packing is
        injective.  Returns ``(mult, space)``, ``space`` being the number
        of distinct packed keys (the product of the radices), ``mult``
        int32 when the space allows; ``None`` when the packed space
        overflows int64 (pathologically wide signatures).
        """
        try:
            return self._sig_packers[attr]
        except KeyError:
            pass
        mult = np.zeros(len(self.schema), dtype=np.int64)
        scale = 1  # Python int: exact, no wraparound
        packer: tuple[np.ndarray, int] | None = None
        for a in self.compiled[attr].signature_attrs[::-1]:
            mult[a] = scale
            scale *= self.schema[int(a)].cardinality + 1
            if scale >= 2**63:
                break  # packed codes would overflow int64 and collide
        else:
            # Keys and partial sums stay within (-space, space): int32
            # spaces pack int32 code rows without a cast.
            packer = (mult.astype(np.int32) if scale <= 2**31 else mult, scale)
        self._sig_packers[attr] = packer
        return packer

    def infer_grouped(
        self,
        codes: np.ndarray,
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Algorithm 2 for a code matrix whose rows each miss one attribute.

        Returns one ``(attr, positions, inverse, cpds)`` per missing
        attribute, ascending: the rows missing ``attr``, each one's
        distinct-signature number, and the read-only ``(g, cardinality)``
        matrix of the distinct signatures' CPDs.  The rows' memo slots
        come from the same memo as :meth:`conditional_probs_batch` (its
        misses answered by one batched compiled match + combine, so repeats
        within and across calls are free), and one ``np.unique`` over them
        numbers the distinct signatures in slot order.
        """
        choice, scheme = self._voting(v_choice, v_scheme)
        missing = codes == MISSING_CODE
        counts = missing.sum(axis=1)
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            raise ValueError(
                f"expected exactly one missing attribute, tuple has "
                f"{counts[bad[0]]}"
            )
        attrs = missing.argmax(axis=1)
        groups = []
        for attr in np.unique(attrs).tolist():
            positions = np.flatnonzero(attrs == attr)
            memo, slots = self._memo_slots(codes[positions], attr, choice, scheme)
            distinct, inverse = np.unique(slots, return_inverse=True)
            cpds = memo.cpds[distinct]
            cpds.setflags(write=False)
            groups.append((attr, positions, inverse, cpds))
        self.tuples_served += codes.shape[0]
        return groups

    def _per_tuple(
        self,
        tuples: Sequence[RelTuple],
        v_choice: VoterChoice | str | None,
        v_scheme: VotingScheme | str | None,
        build: Callable[[int, np.ndarray], Sequence],
    ) -> list:
        """``build(attr, cpds)[k]`` for each tuple's signature number ``k``."""
        out: list = [None] * len(tuples)
        if tuples:
            codes = np.stack([t.codes for t in tuples])
            for attr, positions, inverse, cpds in self.infer_grouped(
                codes, v_choice, v_scheme
            ):
                rows = build(attr, cpds)
                for pos, k in zip(positions.tolist(), inverse.tolist()):
                    out[pos] = rows[k]
        return out

    def infer_batch_codes(
        self,
        tuples: Sequence[RelTuple],
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> list[np.ndarray]:
        """One CPD vector per tuple; every tuple missing exactly one attribute.

        Tuples sharing a signature get the same read-only array.
        """
        return self._per_tuple(
            tuples, v_choice, v_scheme, lambda attr, cpds: list(cpds)
        )

    def infer_batch(
        self,
        tuples: Sequence[RelTuple],
        v_choice: VoterChoice | str | None = None,
        v_scheme: VotingScheme | str | None = None,
    ) -> list[Distribution]:
        """Batch Algorithm 2 returning value-level distributions.

        Each attribute's distinct CPDs are validated and normalized as one
        matrix (:meth:`Distribution.stack`), and tuples sharing an evidence
        signature receive the *same* immutable :class:`Distribution`.
        """
        return self._per_tuple(
            tuples,
            v_choice,
            v_scheme,
            lambda attr, cpds: Distribution.stack(self.schema[attr].domain, cpds),
        )

    # -- diagnostics -----------------------------------------------------------

    def cache_info(self) -> dict[str, int | None]:
        """CPD memo counters plus group/tuple totals, for reporting.

        ``hits`` counts rows (scalar calls count one each) served by a memo
        that already held their signature; ``misses`` and
        ``groups_computed`` count signatures computed; ``evictions`` counts
        memo resets; ``size`` is the signatures all memos hold and
        ``maxsize`` their bound, ``cache_size``.
        """
        return {
            "hits": self.memo_hits,
            "misses": self.groups_computed,
            "evictions": self.memo_resets,
            "size": self._memo_rows,
            "maxsize": self.cache_size,
            "groups_computed": self.groups_computed,
            "tuples_served": self.tuples_served,
        }

    def __repr__(self) -> str:
        return (
            f"BatchInferenceEngine({self.model!r}, vChoice="
            f"{self.v_choice.value}, vScheme={self.v_scheme.value})"
        )
