"""Unit tests for meta-rules and CPD smoothing (Def. 2.6, Section III)."""

import numpy as np
import pytest

from repro.core import mine_frequent_itemsets
from repro.core.metarule import (
    MetaRule,
    build_meta_rules,
    meta_rules_from_matrix,
    smooth_cpd,
)
from repro.core.rules import compute_association_rules
from repro.relational import make_tuple


class TestSmoothing:
    def test_full_cpd_unchanged_up_to_floor(self):
        probs = smooth_cpd(np.array([0.5, 0.3, 0.2]))
        assert np.allclose(probs, [0.5, 0.3, 0.2], atol=1e-4)

    def test_deficit_spread_equally(self):
        # Confidences sum to 0.7; the 0.3 deficit splits equally.
        probs = smooth_cpd(np.array([0.4, 0.3, 0.0]))
        assert probs[0] == pytest.approx(0.5, abs=1e-4)
        assert probs[1] == pytest.approx(0.4, abs=1e-4)
        assert probs[2] == pytest.approx(0.1, abs=1e-4)

    def test_all_zero_becomes_uniform(self):
        probs = smooth_cpd(np.zeros(4))
        assert np.allclose(probs, 0.25)

    def test_strictly_positive_output(self):
        probs = smooth_cpd(np.array([1.0, 0.0]), floor=1e-5)
        assert (probs > 0).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_overshoot_rescaled(self):
        # Tiny counting overshoot above 1 is tolerated and rescaled.
        probs = smooth_cpd(np.array([0.7, 0.4]))
        assert probs.sum() == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            smooth_cpd(np.array([-0.1, 1.1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            smooth_cpd(np.array([]))


class TestMetaRule:
    def test_validation_probs_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MetaRule(0, (), 1.0, np.array([0.5, 0.6]))

    def test_validation_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MetaRule(0, (), 1.0, np.array([1.0, 0.0]))

    def test_validation_weight(self):
        with pytest.raises(ValueError, match="weight"):
            MetaRule(0, (), 0.0, np.array([0.5, 0.5]))

    def test_validation_body_excludes_head(self):
        with pytest.raises(ValueError, match="head attribute"):
            MetaRule(0, ((0, 1),), 0.5, np.array([0.5, 0.5]))

    def test_matches(self, fig1_schema):
        m = MetaRule(0, ((1, 0),), 0.5, np.array([0.2, 0.3, 0.5]))
        t_yes = make_tuple(fig1_schema, {"edu": "HS"})
        t_no = make_tuple(fig1_schema, {"edu": "BS"})
        assert m.matches(t_yes)
        assert not m.matches(t_no)

    def test_empty_body_matches_everything(self, fig1_schema):
        m = MetaRule(0, (), 1.0, np.array([0.2, 0.3, 0.5]))
        assert m.matches(make_tuple(fig1_schema, {}))
        assert m.matches(make_tuple(fig1_schema, {"edu": "MS", "inc": "50K"}))

    def test_subsumption(self):
        general = MetaRule(0, ((1, 0),), 0.5, np.array([0.5, 0.5, 1e-9 + 0.0]))
        # Build with valid positive probs.
        general = MetaRule(0, ((1, 0),), 0.5, np.array([0.4, 0.3, 0.3]))
        specific = MetaRule(0, ((1, 0), (2, 1)), 0.2, np.array([0.4, 0.3, 0.3]))
        assert general.subsumes(specific)
        assert not specific.subsumes(general)
        assert not general.subsumes(general)

    def test_subsumption_requires_same_head(self):
        m0 = MetaRule(0, (), 1.0, np.array([0.5, 0.5]))
        m1 = MetaRule(1, ((0, 0),), 0.5, np.array([0.5, 0.5]))
        assert not m0.subsumes(m1)

    def test_describe(self, fig1_schema):
        m = MetaRule(0, ((1, 0),), 0.41, np.array([0.15, 0.70, 0.15]))
        assert m.describe(fig1_schema) == "P(age | edu=HS)"
        top = MetaRule(0, (), 1.0, np.array([0.31, 0.38, 0.31]))
        assert top.describe(fig1_schema) == "P(age)"

    def test_cpd_over_domain_values(self, fig1_schema):
        m = MetaRule(0, (), 1.0, np.array([0.2, 0.3, 0.5]))
        cpd = m.cpd(fig1_schema)
        assert cpd.outcomes == ("20", "30", "40")
        assert cpd["40"] == pytest.approx(0.5)


class TestMetaRulesFromMatrix:
    BODIES = [(), ((1, 0),), ((1, 1),)]

    def test_rows_equal_per_rule_smoothing(self):
        raw = np.array([[0.5, 0.3, 0.2], [0.4, 0.3, 0.0], [1.0, 0.0, 0.0]])
        weights = np.array([1.0, 0.5, 0.25])
        rules = meta_rules_from_matrix(0, self.BODIES, weights, raw, floor=1e-3)
        for m, body, weight, row in zip(rules, self.BODIES, weights, raw):
            assert (m.head_attribute, m.body, m.weight) == (0, body, weight)
            assert m.probs.tobytes() == smooth_cpd(row, floor=1e-3).tobytes()
            assert not m.probs.flags.writeable

    @pytest.mark.parametrize(
        "weights, floor, message",
        [
            ([1.0, 0.0, 0.5], 1e-5, "weight must be in"),
            ([1.0, 0.5, 1.5], 1e-5, "weight must be in"),
            ([1.0, 0.5, 0.5], 0.0, "strictly positive"),
        ],
    )
    def test_invalid_rows_raise_meta_rule_errors(self, weights, floor, message):
        raw = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=message):
            meta_rules_from_matrix(0, self.BODIES, np.array(weights), raw, floor=floor)

    @pytest.mark.parametrize(
        "raw, weights, message",
        [
            # Row 1 has a zero probability, row 2 a bad weight.
            ([[0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]], [1.0, 0.5, 2.0], "positive"),
            # Row 1 has a bad weight, row 2 a zero probability.
            ([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], [1.0, 2.0, 0.5], "weight"),
        ],
    )
    def test_first_invalid_row_decides_the_error(self, raw, weights, message):
        # As when building one MetaRule after another.
        with pytest.raises(ValueError, match=message):
            meta_rules_from_matrix(
                0, self.BODIES, np.array(weights), np.array(raw), floor=0.0
            )


class TestBuildMetaRules:
    @pytest.fixture
    def meta_rules(self, fig1_relation, fig1_schema):
        itemsets = mine_frequent_itemsets(
            fig1_relation.complete_part(), threshold=0.1
        )
        age = fig1_schema.index("age")
        rules = compute_association_rules(itemsets, age)
        return build_meta_rules(rules, age, fig1_schema["age"].cardinality)

    def test_unique_bodies(self, meta_rules):
        bodies = [m.body for m in meta_rules]
        assert len(set(bodies)) == len(bodies)

    def test_all_cpds_valid(self, meta_rules):
        for m in meta_rules:
            assert m.probs.sum() == pytest.approx(1.0)
            assert (m.probs > 0).all()

    def test_weight_is_body_support(self, fig1_relation, fig1_schema, meta_rules):
        # The P(age | edu=HS) meta-rule's weight is supp(edu=HS) = 4/8
        # (points t4, t6, t7, t17).
        edu = fig1_schema.index("edu")
        hs = fig1_schema["edu"].code("HS")
        m = next(m for m in meta_rules if m.body == ((edu, hs),))
        assert m.weight == pytest.approx(4 / 8)

    def test_cpd_estimates_conditional(self, fig1_schema, meta_rules):
        # P(age=20 | edu=HS) = 3/4 on the Fig. 1 points (before smoothing).
        edu = fig1_schema.index("edu")
        hs = fig1_schema["edu"].code("HS")
        m = next(m for m in meta_rules if m.body == ((edu, hs),))
        a20 = fig1_schema["age"].code("20")
        assert m.probs[a20] == pytest.approx(0.75, abs=0.01)

    def test_mismatched_head_rejected(self, fig1_relation, fig1_schema):
        itemsets = mine_frequent_itemsets(
            fig1_relation.complete_part(), threshold=0.1
        )
        rules = compute_association_rules(itemsets, 0)
        with pytest.raises(ValueError, match="does not match"):
            build_meta_rules(rules, 1, 3)
