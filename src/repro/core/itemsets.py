"""Frequent itemsets of attribute-value pairs (Section III, Apriori [1]).

An *item* is an ``(attribute_position, value_code)`` pair; an *itemset* is a
canonical (sorted, attribute-unique) tuple of items and corresponds to the
complete portion of an incomplete tuple.  Mining is bottom-up Apriori with
two termination conditions, exactly as in the paper: stop when a round finds
no frequent itemsets, or when a round finds more than ``max_itemsets`` of
them (the paper sets 1000 to control model-building time).

Support counting runs on packed item bitmaps: each ``(attribute, value)``
item gets one bit per row, packed into ``uint64`` words, and a candidate's
count is the popcount of the AND of its items' bitmaps.  Each round counts
all its candidates at once, in chunks under :data:`SUPPORT_CHUNK_BYTES`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from ..relational.relation import Relation

__all__ = [
    "Item",
    "Itemset",
    "EMPTY_ITEMSET",
    "make_itemset",
    "itemset_attributes",
    "is_subset",
    "FrequentItemsets",
    "mine_frequent_itemsets",
    "DEFAULT_MAX_ITEMSETS",
    "SUPPORT_CHUNK_BYTES",
]

#: One attribute-value assignment: ``(attribute_position, value_code)``.
Item = tuple[int, int]

#: Canonical itemset: items sorted by attribute position, one per attribute.
Itemset = tuple[Item, ...]

#: The empty itemset (support 1): body of every top-level meta-rule.
EMPTY_ITEMSET: Itemset = ()

#: Per-round cap on newly found frequent itemsets (Section III).
DEFAULT_MAX_ITEMSETS = 1000

#: Byte budget of the ``(candidates, words)`` uint64 bitmap gather one
#: support-counting chunk makes per item position; a round's candidates are
#: split into chunks under it, so peak memory does not grow with the
#: candidate count.
SUPPORT_CHUNK_BYTES = 1 << 18


def make_itemset(items: Iterable[Item]) -> Itemset:
    """Canonicalize ``items`` (sort by attribute, reject duplicates)."""
    itemset = tuple(sorted(items))
    attrs = [attr for attr, _ in itemset]
    if len(set(attrs)) != len(attrs):
        raise ValueError(f"itemset assigns an attribute twice: {itemset}")
    return itemset


def itemset_attributes(itemset: Itemset) -> tuple[int, ...]:
    """Attribute positions assigned by ``itemset``."""
    return tuple(attr for attr, _ in itemset)


def is_subset(smaller: Itemset, larger: Itemset) -> bool:
    """True when every item of ``smaller`` appears in ``larger``."""
    larger_set = set(larger)
    return all(item in larger_set for item in smaller)


class FrequentItemsets:
    """The result of mining: itemset -> support, plus round metadata."""

    def __init__(
        self,
        supports: Mapping[Itemset, float],
        num_points: int,
        threshold: float,
        truncated: bool,
    ):
        self._supports = dict(supports)
        self.num_points = num_points
        self.threshold = threshold
        #: True when a round exceeded ``max_itemsets`` and mining stopped early.
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self._supports)

    def __contains__(self, itemset: Itemset) -> bool:
        return itemset in self._supports

    def __iter__(self):
        return iter(self._supports)

    def support(self, itemset: Itemset) -> float:
        """Support of ``itemset`` (0.0 when not frequent/mined)."""
        return self._supports.get(itemset, 0.0)

    def items(self):
        return self._supports.items()

    def of_size(self, k: int) -> list[Itemset]:
        """All frequent itemsets with exactly ``k`` items."""
        return [s for s in self._supports if len(s) == k]

    def max_size(self) -> int:
        """Size of the largest frequent itemset found."""
        return max((len(s) for s in self._supports), default=0)

    def __repr__(self) -> str:
        return (
            f"FrequentItemsets({len(self)} itemsets, "
            f"theta={self.threshold}, truncated={self.truncated})"
        )


def _item_bitmaps(codes: np.ndarray, cardinalities: list[int]) -> np.ndarray:
    """Packed row bitmaps of every ``(attribute, value)`` item, in that order.

    Row ``i`` of the ``(sum(cardinalities), words)`` uint64 result has bit
    ``r`` set when row ``r`` of ``codes`` assigns the ``i``-th item.
    Padding bits past the last row are zero, and a missing cell matches no
    value, so both stay out of every count.  Built one attribute at a
    time, so the boolean temporaries stay ``cardinality x rows``.
    """
    packed_bytes = -(-codes.shape[0] // 8)
    words = -(-packed_bytes // 8)
    bitmaps = np.zeros((sum(cardinalities), 8 * words), dtype=np.uint8)
    row = 0
    for attr, card in enumerate(cardinalities):
        hits = codes[:, attr] == np.arange(card)[:, None]
        bitmaps[row : row + card, :packed_bytes] = np.packbits(hits, axis=1)
        row += card
    return bitmaps.view(np.uint64)


def _bitmap_counts(bitmaps: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Rows matching each candidate: popcount of the AND of its items' bitmaps.

    ``candidates`` is a ``(C, k)`` matrix of row indices into ``bitmaps``.
    """
    num, k = candidates.shape
    counts = np.empty(num, dtype=np.int64)
    step = max(1, SUPPORT_CHUNK_BYTES // (8 * bitmaps.shape[1]))
    for start in range(0, num, step):
        chunk = candidates[start : start + step]
        both = bitmaps[chunk[:, 0]]
        for j in range(1, k):
            both &= bitmaps[chunk[:, j]]
        counts[start : start + step] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    return counts


def _join_candidates(frequent_k: list[Itemset]) -> list[Itemset]:
    """Apriori candidate generation: join itemsets sharing a (k-1)-prefix.

    Candidates assigning the same attribute twice are discarded, as are
    candidates with an infrequent k-subset (downward-closure pruning).
    """
    frequent_set = set(frequent_k)
    by_prefix: dict[Itemset, list[Item]] = {}
    for itemset in frequent_k:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    candidates = []
    for prefix, tails in by_prefix.items():
        tails.sort()
        for i, a in enumerate(tails):
            for b in tails[i + 1 :]:
                if a[0] == b[0]:
                    continue  # same attribute, two values: contradiction
                candidate = prefix + (a, b)
                # All k-subsets must be frequent; the two that drop ``a`` or
                # ``b`` are the joined itemsets themselves.
                for m in range(len(prefix)):
                    if candidate[:m] + candidate[m + 1 :] not in frequent_set:
                        break
                else:
                    candidates.append(candidate)
    return candidates


def mine_frequent_itemsets(
    complete: Relation,
    threshold: float,
    max_itemsets: int = DEFAULT_MAX_ITEMSETS,
    use_incomplete: bool = False,
) -> FrequentItemsets:
    """Apriori over the complete relation ``Rc``.

    Parameters mirror Algorithm 1: ``threshold`` is the support threshold
    ``theta``; ``max_itemsets`` caps the number of frequent itemsets found in
    one round, after which mining stops (the round's own itemsets are kept).

    With ``use_incomplete=True`` the complete portions of incomplete tuples
    also contribute evidence, as Section III notes is possible "in
    practice".  Semantics are conservative: a row supports an itemset only
    if it *matches* every item (a missing value never matches), and the
    denominator is the full row count — this keeps support anti-monotone
    under itemset growth, so Apriori pruning stays sound.

    The empty itemset is always included with support 1.0 — it is the body of
    every top-level meta-rule ``P(a)``.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("support threshold must be in (0, 1]")
    if max_itemsets < 1:
        raise ValueError("max_itemsets must be positive")
    codes = complete.codes
    if not use_incomplete and complete.num_complete != len(complete):
        # Mining is defined over points only (Section III); slice them out.
        codes = codes[complete.complete_mask()]
    n = codes.shape[0]
    supports: dict[Itemset, float] = {EMPTY_ITEMSET: 1.0}
    if n == 0:
        return FrequentItemsets(supports, 0, threshold, truncated=False)

    # Round 1: all single attribute-value items, one bitmap row each.
    cardinalities = [attribute.cardinality for attribute in complete.schema]
    items = [(attr, value) for attr, card in enumerate(cardinalities) for value in range(card)]
    item_rows = {item: row for row, item in enumerate(items)}
    bitmaps = _item_bitmaps(codes, cardinalities)
    candidates: list[Itemset] = [(item,) for item in items]

    min_count = threshold * n
    truncated = False
    while candidates:
        k = len(candidates[0])
        rows = np.fromiter(
            map(item_rows.__getitem__, chain.from_iterable(candidates)),
            dtype=np.intp,
            count=k * len(candidates),
        ).reshape(-1, k)
        counts = _bitmap_counts(bitmaps, rows)
        frequent = np.flatnonzero(counts >= min_count).tolist()
        if not frequent:
            break
        frequent_k = [candidates[i] for i in frequent]
        supports.update(zip(frequent_k, counts[frequent] / n))
        if len(frequent_k) > max_itemsets:
            truncated = True
            break
        candidates = _join_candidates(sorted(frequent_k))
    return FrequentItemsets(supports, n, threshold, truncated=truncated)
