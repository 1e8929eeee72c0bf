"""Unit tests for TupleBlock (the Δt objects)."""

import pytest

from repro.probdb import Distribution, TupleBlock
from repro.relational import SchemaError, make_tuple


@pytest.fixture
def t12(fig1_schema):
    # Paper's t12: <age=30, edu=MS, inc=?, nw=?>
    return make_tuple(fig1_schema, {"age": "30", "edu": "MS"})


@pytest.fixture
def delta_t12(fig1_schema, t12):
    # The Fig. 1 call-out: Δt12 over (inc, nw).
    dist = Distribution(
        [("50K", "100K"), ("50K", "500K"), ("100K", "100K"), ("100K", "500K")],
        [0.30, 0.45, 0.10, 0.15],
    )
    return TupleBlock(t12, dist)


class TestConstruction:
    def test_missing_names_in_position_order(self, delta_t12):
        assert delta_t12.missing_names == ("inc", "nw")

    def test_complete_base_rejected(self, fig1_schema):
        point = make_tuple(fig1_schema, ["20", "HS", "50K", "100K"])
        with pytest.raises(SchemaError, match="incomplete"):
            TupleBlock(point, Distribution([("x",)], [1.0]))

    def test_outcomes_outside_domain_rejected(self, t12):
        bad = Distribution([("50K", "bogus")], [1.0])
        with pytest.raises(SchemaError, match="outside"):
            TupleBlock(t12, bad)

    def test_memoized_outcome_space_still_rejects(self, fig1_schema, t12):
        """The expected space is memoized per missing-attribute domains; a
        valid block warming it must not let a bad one through later."""
        good = Distribution([("50K", "100K")], [1.0])
        TupleBlock(t12, good)
        for outcome in [("50K", "bogus"), ("50K",), ("100K", "500K", "x")]:
            with pytest.raises(SchemaError, match="outside"):
                TupleBlock(t12, Distribution([outcome], [1.0]))
        # Other missing positions: their own space.
        t5 = make_tuple(fig1_schema, {"age": "20"})
        with pytest.raises(SchemaError, match="outside"):
            TupleBlock(t5, good)
        assert len(TupleBlock(t5, Distribution([("HS", "50K", "100K")], [1.0]))) == 1

    def test_partial_outcome_space_allowed(self, t12):
        # Gibbs may report only observed outcomes for huge spaces.
        dist = Distribution([("50K", "100K")], [1.0])
        block = TupleBlock(t12, dist)
        assert len(block) == 1


class TestCompletions:
    def test_completions_match_fig1_callout(self, delta_t12):
        rows = {
            tuple(t.values()): p for t, p in delta_t12.completions()
        }
        assert rows[("30", "MS", "50K", "500K")] == pytest.approx(0.45)
        assert len(rows) == 4

    def test_completions_are_complete_tuples(self, delta_t12):
        assert all(t.is_complete for t, _ in delta_t12.completions())

    def test_completion_probabilities_sum_to_one(self, delta_t12):
        assert sum(p for _, p in delta_t12.completions()) == pytest.approx(1.0)

    def test_most_probable_completion(self, delta_t12):
        best = delta_t12.most_probable_completion()
        # t12.2: inc=50K, nw=500K with probability 0.45.
        assert best.value("inc") == "50K"
        assert best.value("nw") == "500K"


class TestMarginal:
    def test_marginal_inc(self, delta_t12):
        m = delta_t12.marginal("inc")
        assert m["50K"] == pytest.approx(0.75)
        assert m["100K"] == pytest.approx(0.25)

    def test_marginal_nw(self, delta_t12):
        m = delta_t12.marginal("nw")
        assert m["100K"] == pytest.approx(0.40)
        assert m["500K"] == pytest.approx(0.60)

    def test_marginal_of_known_attribute_rejected(self, delta_t12):
        with pytest.raises(SchemaError, match="not missing"):
            delta_t12.marginal("age")

    def test_certain_block(self, fig1_schema, t12):
        block = TupleBlock.certain(t12, ("100K", "500K"))
        assert block.most_probable_completion().value("inc") == "100K"
        assert block.distribution[("100K", "500K")] == pytest.approx(1.0)
