"""Integration tests for the end-to-end derive pipeline."""

import pytest

from repro import DeriveConfig, derive_probabilistic_database
from repro.core import workload_sampling
from repro.relational import make_tuple


@pytest.fixture
def result(fig1_relation):
    return derive_probabilistic_database(
        fig1_relation,
        config=DeriveConfig(support_threshold=0.1, num_samples=300, burn_in=50),
        rng=0,
    )


class TestDeriveOnFig1:
    def test_one_block_per_incomplete_tuple(self, result, fig1_relation):
        assert len(result.database.blocks) == fig1_relation.num_incomplete
        assert len(result.database.certain) == fig1_relation.num_complete

    def test_block_bases_cover_incomplete_tuples(self, result, fig1_relation):
        bases = {b.base for b in result.database.blocks}
        assert bases == set(fig1_relation.incomplete_part())

    def test_every_block_sums_to_one(self, result):
        for block in result.database.blocks:
            assert sum(block.distribution.probs) == pytest.approx(1.0)

    def test_single_missing_blocks_cover_full_domain(self, result, fig1_schema):
        for block in result.database.blocks:
            if block.base.num_missing == 1:
                attr = block.missing_names[0]
                assert len(block) == fig1_schema[attr].cardinality

    def test_model_attached(self, result, fig1_schema):
        assert len(result.model) == len(fig1_schema)
        assert result.learn_result.model is result.model

    def test_sampling_stats_populated(self, result, fig1_relation):
        multi = sum(
            1 for t in fig1_relation.incomplete_part() if t.num_missing > 1
        )
        assert multi > 0
        assert result.sampling_stats.total_draws > 0

    def test_reproducible_with_seed(self, fig1_relation):
        a = derive_probabilistic_database(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=200, burn_in=20),
            rng=5,
        )
        b = derive_probabilistic_database(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=200, burn_in=20),
            rng=5,
        )
        for ba, bb in zip(a.database.blocks, b.database.blocks):
            assert ba.base == bb.base
            for o in ba.distribution.outcomes:
                assert ba.distribution[o] == pytest.approx(bb.distribution[o])

    def test_strategy_passthrough(self, result, fig1_relation):
        """Workload strategies pass through :func:`workload_sampling` only:
        the pipeline has one Gibbs kernel, so the config has no strategy."""
        with pytest.raises(TypeError):
            DeriveConfig(strategy="tuple_at_a_time")
        multi = [t for t in fig1_relation.incomplete_part() if t.num_missing > 1]
        blocks, stats = workload_sampling(
            result.model, multi, num_samples=100, burn_in=10,
            strategy="tuple_at_a_time", rng=0,
        )
        assert [b.base for b in blocks] == multi
        assert stats.shared_tuples == 0


class TestDeriveEdgeCases:
    def test_fully_complete_relation(self, fig1_relation):
        complete = fig1_relation.complete_part()
        result = derive_probabilistic_database(
            complete,
            config=DeriveConfig(support_threshold=0.1),
        )
        assert len(result.database.blocks) == 0
        assert result.database.num_possible_worlds() == 1
        assert result.sampling_stats.total_draws == 0

    def test_single_missing_only_uses_no_sampling(self, fig1_schema, fig1_relation):
        from repro.relational import Relation

        rows = list(fig1_relation.complete_part())
        rows.append(make_tuple(fig1_schema, {"age": "20", "edu": "HS", "inc": "50K"}))
        rel = Relation(fig1_schema, rows)
        result = derive_probabilistic_database(rel, config=DeriveConfig(support_threshold=0.1))
        assert len(result.database.blocks) == 1
        assert result.sampling_stats.total_draws == 0
