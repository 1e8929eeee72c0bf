"""Algorithm 1: learning the MRSL model from the complete data.

``learn_mrsl`` mirrors the paper's pseudocode line by line:

1. ``ComputeFreqItemsets(theta, maxItemsets)`` — Apriori mining;
2. per attribute: ``ComputeAssocRules`` -> ``ComputeMetaRules`` ->
   ``ComputeSubsumption`` (the semi-lattice is implied by the body index);
3. collect the per-attribute semi-lattices into the MRSL model.

Step 2 runs stacked: one pass over the frequent itemsets collects every
attribute's rule confidences into one ``(bodies, cardinality)`` matrix,
which is smoothed and validated at once.  The per-rule functions
:func:`~repro.core.rules.compute_association_rules` and
:func:`~repro.core.metarule.build_meta_rules` are the reference it equals
bit for bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..probdb.distribution import DEFAULT_SMOOTHING_FLOOR
from ..relational.relation import Relation
from ..relational.schema import Schema
from .itemsets import (
    DEFAULT_MAX_ITEMSETS,
    FrequentItemsets,
    Itemset,
    mine_frequent_itemsets,
)
from .metarule import MetaRule, meta_rules_from_matrix
from .mrsl import MRSL, MRSLModel

__all__ = ["LearnResult", "learn_mrsl"]


@dataclass
class LearnResult:
    """Output of Algorithm 1 plus mining diagnostics."""

    model: MRSLModel
    itemsets: FrequentItemsets

    @property
    def model_size(self) -> int:
        """Total meta-rule count (the y-axis of Fig. 4(c))."""
        return self.model.size()


def learn_mrsl(
    relation: Relation,
    support_threshold: float,
    max_itemsets: int = DEFAULT_MAX_ITEMSETS,
    smoothing_floor: float = DEFAULT_SMOOTHING_FLOOR,
    use_incomplete_evidence: bool = False,
) -> LearnResult:
    """Learn the MRSL model from the complete part of ``relation``.

    By default incomplete tuples in the input are ignored (Section III
    learns from ``Rc``).  ``use_incomplete_evidence=True`` enables the
    extension the paper notes: "the complete portion of incomplete tuples in
    Ri may also be used to discover association rules" — useful when the
    complete part is small relative to the incomplete part.

    Parameters
    ----------
    relation:
        Input relation.
    support_threshold:
        Apriori support threshold ``theta``.
    max_itemsets:
        Per-round frequent-itemset cap (paper default 1000).
    smoothing_floor:
        Minimum per-value probability in meta-rule CPDs (paper: 1e-5).
    use_incomplete_evidence:
        Mine over all tuples' known values, not just complete points.
    """
    if use_incomplete_evidence:
        itemsets = mine_frequent_itemsets(
            relation,
            threshold=support_threshold,
            max_itemsets=max_itemsets,
            use_incomplete=True,
        )
    else:
        itemsets = mine_frequent_itemsets(
            relation.complete_part(),
            threshold=support_threshold,
            max_itemsets=max_itemsets,
        )
    meta_rules = _stacked_meta_rules(itemsets, relation.schema, smoothing_floor)
    lattices = [MRSL(attr, rules) for attr, rules in enumerate(meta_rules)]
    return LearnResult(model=MRSLModel(relation.schema, lattices), itemsets=itemsets)


def _stacked_meta_rules(
    itemsets: FrequentItemsets, schema: Schema, floor: float
) -> list[list[MetaRule]]:
    """``ComputeAssocRules`` + ``ComputeMetaRules`` for every head attribute.

    Each frequent itemset yields one rule per item as head; a head
    attribute's bodies are numbered in first-seen order, the grouping
    order of :func:`~repro.core.metarule.build_meta_rules`.  Rule checks
    raise the :class:`~repro.core.rules.AssociationRule` error of the
    first invalid rule.
    """
    bodies: list[dict[Itemset, int]] = [{} for _ in schema]
    # Per head attribute: body row, head value and supp(I) of each rule.
    rules = [(array("q"), array("q"), array("d")) for _ in schema]
    for itemset, support in itemsets.items():
        for m, (attr, value) in enumerate(itemset):
            rows = bodies[attr]
            body_rows, head_values, supports = rules[attr]
            body_rows.append(rows.setdefault(itemset[:m] + itemset[m + 1 :], len(rows)))
            head_values.append(value)
            supports.append(support)
    out = []
    for attr, attribute in enumerate(schema):
        rows = bodies[attr]
        weights = np.array([itemsets.support(body) for body in rows], dtype=np.float64)
        body_row, head_value, support = (np.asarray(column) for column in rules[attr])
        body_support = weights[body_row]
        _check_rules(support, body_support)
        raw = np.zeros((len(rows), attribute.cardinality))
        raw[body_row, head_value] = support / body_support
        out.append(meta_rules_from_matrix(attr, list(rows), weights, raw, floor))
    return out


def _check_rules(support: np.ndarray, body_support: np.ndarray) -> None:
    """Raise the :class:`~repro.core.rules.AssociationRule` error of the first bad rule."""
    no_body = body_support <= 0
    out_of_range = (support < 0) | (support > body_support + 1e-12)
    bad = no_body | out_of_range
    if not bad.any():
        return
    i = int(bad.argmax())
    if no_body[i]:
        raise ValueError("rule body must have positive support")
    raise ValueError(
        "rule support must lie in [0, body_support] "
        f"(got {support[i]} vs {body_support[i]})"
    )
