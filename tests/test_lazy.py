"""Unit tests for lazy, query-targeted derivation."""

import pytest

from repro.api.config import DeriveConfig
from repro.core import LazyDeriver, derive_probabilistic_database
from repro.probdb import expected_count
from repro.relational import make_tuple


@pytest.fixture
def deriver(fig1_relation):
    return LazyDeriver(
        fig1_relation,
        config=DeriveConfig(support_threshold=0.1, num_samples=300, burn_in=50),
        rng=0,
    )


class TestLaziness:
    def test_nothing_materialized_initially(self, deriver):
        assert deriver.materialized == 0

    def test_block_materializes_once(self, deriver, fig1_schema):
        t = make_tuple(fig1_schema, {"age": "30", "edu": "MS"})
        a = deriver.block(t)
        b = deriver.block(t)
        assert a is b
        assert deriver.materialized == 1

    def test_query_on_known_attribute_skips_inference(self, deriver):
        # age is known for 15 of the 17 tuples; only tuples with missing
        # age need inference for an age predicate.
        count = deriver.expected_count(lambda t: t.value("age") == "20")
        # t8 <?, HS, ?, ?> and t5 <20, ?, ?, ?>: t5's age is known, so only
        # t8 (and t5's block is decided without inference).
        assert deriver.materialized <= 2
        assert count > 0

    def test_tautology_materializes_nothing(self, deriver):
        count = deriver.expected_count(lambda t: True)
        assert count == pytest.approx(17.0)
        assert deriver.materialized == 0

    def test_contradiction_materializes_nothing(self, deriver):
        count = deriver.expected_count(lambda t: False)
        assert count == 0.0
        assert deriver.materialized == 0


class TestCorrectness:
    def test_expected_count_matches_eager(self, fig1_relation):
        lazy = LazyDeriver(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=400, burn_in=50),
            rng=3,
        )
        eager = derive_probabilistic_database(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=400, burn_in=50),
            rng=3,
        ).database

        def pred(t):
            return t.value("nw") == "500K"

        lazy_count = lazy.expected_count(pred)
        eager_count = expected_count(eager, pred)
        # Independent Gibbs runs: equal up to sampling noise.
        assert lazy_count == pytest.approx(eager_count, abs=1.0)

    def test_materialize_all_covers_everything(self, deriver, fig1_relation):
        db = deriver.materialize_all()
        assert len(db.blocks) == fig1_relation.num_incomplete
        assert deriver.materialized == len(
            set(fig1_relation.incomplete_part())
        )

    def test_prefetch_uses_one_workload(self, deriver, fig1_relation):
        multi = [
            t for t in fig1_relation.incomplete_part() if t.num_missing > 1
        ]
        deriver.prefetch(multi)
        assert deriver.materialized == len(set(multi))
        # Subsequent block() calls are cache hits.
        before = deriver.materialized
        deriver.block(multi[0])
        assert deriver.materialized == before

    def test_repr(self, deriver):
        assert "LazyDeriver" in repr(deriver)
