"""Unit tests for Apriori frequent-itemset mining."""

import itertools

import numpy as np
import pytest

from repro.core import itemsets as itemsets_module
from repro.core import mine_frequent_itemsets
from repro.core.itemsets import (
    EMPTY_ITEMSET,
    is_subset,
    itemset_attributes,
    make_itemset,
)
from repro.relational import Relation, Schema


@pytest.fixture
def rc(fig1_relation):
    return fig1_relation.complete_part()


def brute_force_supports(relation, threshold):
    """All itemsets (any size) meeting the threshold, by enumeration."""
    codes = relation.codes
    n = codes.shape[0]
    schema = relation.schema
    items = [
        (attr, value)
        for attr in range(len(schema))
        for value in range(schema[attr].cardinality)
    ]
    out = {EMPTY_ITEMSET: 1.0}
    for size in range(1, len(schema) + 1):
        for combo in itertools.combinations(items, size):
            attrs = [a for a, _ in combo]
            if len(set(attrs)) != size:
                continue
            mask = np.ones(n, dtype=bool)
            for attr, value in combo:
                mask &= codes[:, attr] == value
            supp = mask.sum() / n
            if supp >= threshold:
                out[tuple(sorted(combo))] = supp
    return out


class TestHelpers:
    def test_make_itemset_canonicalizes(self):
        assert make_itemset([(2, 1), (0, 3)]) == ((0, 3), (2, 1))

    def test_make_itemset_rejects_duplicate_attribute(self):
        with pytest.raises(ValueError, match="twice"):
            make_itemset([(0, 1), (0, 2)])

    def test_itemset_attributes(self):
        assert itemset_attributes(((0, 3), (2, 1))) == (0, 2)

    def test_is_subset(self):
        small = ((0, 1),)
        large = ((0, 1), (1, 0))
        assert is_subset(small, large)
        assert not is_subset(large, small)
        assert is_subset(EMPTY_ITEMSET, small)


class TestMining:
    def test_empty_itemset_always_present(self, rc):
        fi = mine_frequent_itemsets(rc, threshold=0.5)
        assert EMPTY_ITEMSET in fi
        assert fi.support(EMPTY_ITEMSET) == 1.0

    def test_matches_brute_force(self, rc):
        for theta in (0.1, 0.25, 0.5):
            fi = mine_frequent_itemsets(rc, threshold=theta)
            expected = brute_force_supports(rc, theta)
            got = dict(fi.items())
            assert got.keys() == expected.keys()
            for k in expected:
                assert got[k] == pytest.approx(expected[k])

    def test_paper_support_value(self, fig1_schema, rc):
        # supp(edu=HS) = 4/8 among the Fig. 1 points (t4, t6, t7, t17).
        fi = mine_frequent_itemsets(rc, threshold=0.1)
        edu_hs = ((fig1_schema.index("edu"), fig1_schema["edu"].code("HS")),)
        assert fi.support(edu_hs) == pytest.approx(4 / 8)

    def test_higher_threshold_shrinks_result(self, rc):
        low = mine_frequent_itemsets(rc, threshold=0.05)
        high = mine_frequent_itemsets(rc, threshold=0.5)
        assert len(high) < len(low)
        # Monotonicity: high-threshold itemsets are a subset.
        assert set(high).issubset(set(low))

    def test_downward_closure(self, rc):
        fi = mine_frequent_itemsets(rc, threshold=0.2)
        for itemset in fi:
            for m in range(len(itemset)):
                subset = itemset[:m] + itemset[m + 1 :]
                assert subset in fi

    def test_support_monotone_under_subset(self, rc):
        fi = mine_frequent_itemsets(rc, threshold=0.1)
        for itemset in fi:
            for m in range(len(itemset)):
                subset = itemset[:m] + itemset[m + 1 :]
                assert fi.support(subset) >= fi.support(itemset) - 1e-12

    def test_max_itemsets_truncation(self, rc):
        fi = mine_frequent_itemsets(rc, threshold=0.01, max_itemsets=2)
        assert fi.truncated
        # The capped round's own itemsets are still recorded (paper: "stop
        # after round k"), deeper ones are not explored.
        full = mine_frequent_itemsets(rc, threshold=0.01)
        assert len(fi) <= len(full)

    def test_untruncated_flag(self, rc):
        fi = mine_frequent_itemsets(rc, threshold=0.2)
        assert not fi.truncated

    def test_incomplete_rows_ignored(self, fig1_relation):
        # Mining over the mixed relation must equal mining over Rc.
        mixed = mine_frequent_itemsets(fig1_relation, threshold=0.2)
        pure = mine_frequent_itemsets(
            fig1_relation.complete_part(), threshold=0.2
        )
        assert dict(mixed.items()) == dict(pure.items())

    def test_empty_relation(self, fig1_schema):
        fi = mine_frequent_itemsets(Relation(fig1_schema), threshold=0.1)
        assert len(fi) == 1  # just the empty itemset
        assert fi.num_points == 0

    def test_threshold_bounds(self, rc):
        with pytest.raises(ValueError):
            mine_frequent_itemsets(rc, threshold=0.0)
        with pytest.raises(ValueError):
            mine_frequent_itemsets(rc, threshold=1.5)

    def test_of_size_and_max_size(self, rc):
        fi = mine_frequent_itemsets(rc, threshold=0.25)
        assert all(len(s) == 1 for s in fi.of_size(1))
        assert fi.max_size() >= 2

    @pytest.mark.parametrize("budget", [1, 8, 24, 1 << 18])
    def test_chunk_budget_does_not_change_supports(self, monkeypatch, budget):
        # A budget below one candidate's bitmap still counts one per chunk.
        rng = np.random.default_rng(3)
        schema = Schema.from_domains({f"a{i}": ["x", "y", "z"] for i in range(4)})
        rel = Relation.from_codes(schema, rng.integers(0, 3, (150, 4)))
        reference = list(mine_frequent_itemsets(rel, threshold=0.02).items())
        monkeypatch.setattr(itemsets_module, "SUPPORT_CHUNK_BYTES", budget)
        assert list(mine_frequent_itemsets(rel, threshold=0.02).items()) == reference
