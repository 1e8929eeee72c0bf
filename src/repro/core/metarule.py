"""Meta-rules: grouped association rules acting as local CPD estimates (Def. 2.6).

A meta-rule collects every association rule with a given body and head
attribute; its estimated CPD assigns each head value the corresponding
rule's confidence.  Because some value combinations fail the support
threshold, rule confidences may not sum to 1; the remaining probability mass
is spread equally over all head values, and a floor of 1e-5 keeps the CPD
strictly positive (Section III) — a requirement for Gibbs convergence.

The meta-rule's *weight* is the support of its body, shown as ``W`` above
each node in the paper's Fig. 2.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..probdb.distribution import DEFAULT_SMOOTHING_FLOOR, Distribution
from ..relational.schema import Schema
from ..relational.tuples import RelTuple
from .itemsets import Itemset
from .rules import AssociationRule

__all__ = ["MetaRule", "build_meta_rules", "meta_rules_from_matrix", "smooth_cpd"]


def smooth_cpd(
    raw: np.ndarray, floor: float = DEFAULT_SMOOTHING_FLOOR
) -> np.ndarray:
    """Section III smoothing: spread the probability deficit, floor, renormalize.

    ``raw`` holds per-value confidence estimates summing to at most ~1.  Any
    missing mass (values whose itemsets were infrequent) is distributed
    equally among *all* values; every value then receives at least ``floor``
    and the vector is renormalized.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("CPD estimate must be a non-empty vector")
    if (raw < 0).any():
        raise ValueError("CPD estimate has negative entries")
    total = raw.sum()
    if total > 1.0 + 1e-9:
        # Counting noise can push the sum slightly above 1; rescale.
        raw = raw / total
        total = 1.0
    deficit = max(1.0 - total, 0.0)
    probs = raw + deficit / raw.size
    probs = np.maximum(probs, floor)
    return probs / probs.sum()


def _smooth_rows(raw: np.ndarray, floor: float) -> np.ndarray:
    """:func:`smooth_cpd` applied to each row of a C-contiguous matrix.

    Every row goes through the same float operations in the same order as
    the vector version (a row sum of a C-contiguous matrix reduces each
    row exactly as a 1-D sum does), so the rows are bit-identical to it.
    """
    total = raw.sum(axis=1)
    over = total > 1.0 + 1e-9
    if over.any():
        raw = raw.copy()
        raw[over] = raw[over] / total[over, None]
        total = np.where(over, 1.0, total)
    deficit = np.maximum(1.0 - total, 0.0)
    probs = raw + (deficit / raw.shape[1])[:, None]
    probs = np.maximum(probs, floor)
    return probs / probs.sum(axis=1)[:, None]


class MetaRule:
    """A local CPD estimate ``P(head_attribute | body)`` with a support weight."""

    __slots__ = ("head_attribute", "body", "weight", "probs")

    def __init__(
        self,
        head_attribute: int,
        body: Itemset,
        weight: float,
        probs: np.ndarray,
    ):
        probs = np.asarray(probs, dtype=np.float64)
        if not np.isclose(probs.sum(), 1.0, atol=1e-9):
            raise ValueError("meta-rule CPD must sum to 1")
        if (probs <= 0).any():
            raise ValueError("meta-rule CPD must be strictly positive")
        if not 0.0 < weight <= 1.0 + 1e-12:
            raise ValueError("meta-rule weight must be in (0, 1]")
        if any(attr == head_attribute for attr, _ in body):
            raise ValueError("meta-rule body assigns the head attribute")
        probs.setflags(write=False)
        self.head_attribute = head_attribute
        self.body = body
        self.weight = float(weight)
        self.probs = probs

    @classmethod
    def _trusted(
        cls, head_attribute: int, body: Itemset, weight: float, probs: np.ndarray
    ) -> "MetaRule":
        """A meta-rule from already validated, read-only ``probs``."""
        m = cls.__new__(cls)
        m.head_attribute = head_attribute
        m.body = body
        m.weight = float(weight)
        m.probs = probs
        return m

    @property
    def body_size(self) -> int:
        """Number of attribute-value assignments in the body."""
        return len(self.body)

    def matches(self, t: RelTuple) -> bool:
        """True when every body assignment agrees with ``t``'s known values.

        A meta-rule matches an incomplete tuple if the body makes the same
        attribute-value assignments as the tuple does (Section IV).
        """
        codes = t.codes
        return all(codes[attr] == value for attr, value in self.body)

    def subsumes(self, other: "MetaRule") -> bool:
        """Def. 2.7: same head, and this body properly subsumes the other's."""
        if self.head_attribute != other.head_attribute:
            return False
        if len(self.body) >= len(other.body):
            return False
        other_items = set(other.body)
        return all(item in other_items for item in self.body)

    def cpd(self, schema: Schema) -> Distribution:
        """The estimated CPD as a value-level distribution."""
        domain = schema[self.head_attribute].domain
        return Distribution(domain, self.probs)

    def describe(self, schema: Schema) -> str:
        """Human-readable ``P(head | body)`` string, as in Fig. 2."""
        head = schema[self.head_attribute].name
        if not self.body:
            return f"P({head})"
        conds = " ^ ".join(
            f"{schema[attr].name}={schema[attr].value(value)}"
            for attr, value in self.body
        )
        return f"P({head} | {conds})"

    def __repr__(self) -> str:
        return (
            f"MetaRule(head={self.head_attribute}, body={self.body}, "
            f"weight={self.weight:.4f})"
        )


def build_meta_rules(
    rules: Sequence[AssociationRule],
    head_attribute: int,
    cardinality: int,
    floor: float = DEFAULT_SMOOTHING_FLOOR,
) -> list[MetaRule]:
    """``ComputeMetaRules``: group rules by body and estimate each CPD.

    Rules sharing a body are combined into one meta-rule whose CPD entry for
    head value ``v`` is the confidence of the rule assigning ``v`` (0 for
    values with no surviving rule, before smoothing).
    """
    grouped: dict[Itemset, list[AssociationRule]] = {}
    for rule in rules:
        if rule.head_attribute != head_attribute:
            raise ValueError(
                f"rule head attribute {rule.head_attribute} does not match "
                f"{head_attribute}"
            )
        grouped.setdefault(rule.body, []).append(rule)
    meta_rules = []
    for body, members in grouped.items():
        raw = np.zeros(cardinality)
        for rule in members:
            raw[rule.head_value] = rule.confidence
        weight = members[0].body_support
        probs = smooth_cpd(raw, floor=floor)
        meta_rules.append(MetaRule(head_attribute, body, weight, probs))
    return meta_rules


def meta_rules_from_matrix(
    head_attribute: int,
    bodies: Sequence[Itemset],
    weights: np.ndarray,
    raw: np.ndarray,
    floor: float = DEFAULT_SMOOTHING_FLOOR,
) -> list[MetaRule]:
    """One head attribute's meta-rules from a stacked confidence matrix.

    Row ``i`` of the ``(len(bodies), cardinality)`` matrix ``raw`` holds
    the rule confidences of body ``bodies[i]``, whose support is
    ``weights[i]``; the bodies must not assign ``head_attribute``.  The
    rows are smoothed and validated at once and raise the
    :class:`MetaRule` error of the first invalid row; the emitted
    meta-rules' CPDs are read-only row views of one matrix, equal bit for
    bit to what :func:`build_meta_rules` builds from the same rules.
    """
    probs = _smooth_rows(np.ascontiguousarray(raw, dtype=np.float64), floor)
    failures = (
        (~np.isclose(probs.sum(axis=1), 1.0, atol=1e-9), "meta-rule CPD must sum to 1"),
        ((probs <= 0).any(axis=1), "meta-rule CPD must be strictly positive"),
        (~((weights > 0.0) & (weights <= 1.0 + 1e-12)), "meta-rule weight must be in (0, 1]"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in failures])
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(next(message for mask, message in failures if mask[row]))
    probs.setflags(write=False)
    return [
        MetaRule._trusted(head_attribute, body, weight, row)
        for body, weight, row in zip(bodies, weights.tolist(), probs)
    ]
