"""Unit tests for Algorithm 1 (MRSL learning)."""

import numpy as np
import pytest

from repro.bayesnet import forward_sample_relation, make_network
from repro.core import learn_mrsl
from repro.core.itemsets import FrequentItemsets
from repro.core.learning import _stacked_meta_rules
from repro.relational import Relation, Schema


class TestLearnOnFig1:
    def test_returns_model_and_itemsets(self, fig1_relation):
        result = learn_mrsl(fig1_relation, support_threshold=0.1)
        assert result.model_size == result.model.size()
        assert result.itemsets.num_points == 8

    def test_every_attribute_has_root_rule(self, fig1_relation):
        result = learn_mrsl(fig1_relation, support_threshold=0.1)
        for lattice in result.model:
            assert lattice.root is not None, "P(a) must always be mined"

    def test_root_cpd_matches_value_frequencies(self, fig1_relation, fig1_schema):
        result = learn_mrsl(fig1_relation, support_threshold=0.1)
        root = result.model["age"].root
        # Among the 8 points: age=20 x4, 30 x1, 40 x3.
        a = fig1_schema["age"]
        assert root.probs[a.code("20")] == pytest.approx(0.5, abs=0.01)
        assert root.probs[a.code("30")] == pytest.approx(0.125, abs=0.01)
        assert root.probs[a.code("40")] == pytest.approx(0.375, abs=0.01)

    def test_learning_ignores_incomplete_rows(self, fig1_relation):
        full = learn_mrsl(fig1_relation, support_threshold=0.1)
        only_complete = learn_mrsl(
            fig1_relation.complete_part(), support_threshold=0.1
        )
        assert full.model_size == only_complete.model_size

    def test_higher_support_gives_smaller_model(self, fig1_relation):
        low = learn_mrsl(fig1_relation, support_threshold=0.05)
        high = learn_mrsl(fig1_relation, support_threshold=0.4)
        assert high.model_size < low.model_size

    def test_max_itemsets_controls_depth(self, fig1_relation):
        capped = learn_mrsl(fig1_relation, support_threshold=0.05, max_itemsets=3)
        assert capped.itemsets.truncated

    def test_meta_rule_weights_are_supports(self, fig1_relation, fig1_schema):
        result = learn_mrsl(fig1_relation, support_threshold=0.1)
        itemsets = result.itemsets
        for lattice in result.model:
            for m in lattice:
                assert m.weight == pytest.approx(itemsets.support(m.body))


class TestLearnOnSampledData:
    def test_cpds_approach_truth_with_data(self, rng):
        net = make_network("BN8", rng)
        data = forward_sample_relation(net, 8000, rng)
        result = learn_mrsl(data, support_threshold=0.01)
        # Each root CPD should be close to the variable's true marginal.
        from repro.bayesnet import marginal

        for i, name in enumerate(net.names):
            true = marginal(net, name)
            learned = result.model[i].root
            for code in range(net[name].cardinality):
                assert learned.probs[code] == pytest.approx(
                    true[code], abs=0.05
                )

    def test_empty_training_data_yields_empty_lattices(self, fig1_schema):
        result = learn_mrsl(Relation(fig1_schema), support_threshold=0.1)
        assert result.model_size == 0


class TestStackedMetaRuleChecks:
    """The per-rule CPD checks still fire when meta-rules are built stacked."""

    @pytest.fixture
    def dependent(self):
        # b always equals a: P(b | a) puts all its mass on one value.
        schema = Schema.from_domains({"a": ["x", "y"], "b": ["x", "y"]})
        return Relation.from_codes(schema, np.array([[0, 0], [1, 1]] * 10))

    def test_zero_floor_on_deterministic_dependency_raises(self, dependent):
        with pytest.raises(ValueError, match="meta-rule CPD must be strictly positive"):
            learn_mrsl(dependent, support_threshold=0.1, smoothing_floor=0.0)

    def test_default_floor_keeps_cpds_positive_and_read_only(self, dependent):
        model = learn_mrsl(dependent, support_threshold=0.1).model
        m = model["b"].get(((0, 0),))
        assert m.probs[0] > 0.99 and m.probs[1] > 0
        assert not m.probs.flags.writeable

    @pytest.mark.parametrize(
        "supports, message",
        [
            # supp({a=x, b=x}) above supp({a=x}): not a valid rule.
            ({(): 1.0, ((0, 0),): 0.25, ((1, 0),): 0.5, ((0, 0), (1, 0)): 0.3},
             r"rule support must lie in \[0, body_support\]"),
            # The body {a=x} of {a=x, b=x} was never mined.
            ({(): 1.0, ((1, 0),): 0.5, ((0, 0), (1, 0)): 0.3},
             "rule body must have positive support"),
        ],
    )
    def test_rule_checks_fire_on_inconsistent_itemsets(self, dependent, supports, message):
        itemsets = FrequentItemsets(supports, 20, 0.1, truncated=False)
        with pytest.raises(ValueError, match=message):
            _stacked_meta_rules(itemsets, dependent.schema, 1e-5)
