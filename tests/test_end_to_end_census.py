"""Full-pipeline integration test on the census dataset.

Exercises every layer together: dataset generation -> masking -> derive
(learning + voting + Gibbs + tuple DAG) -> probabilistic DB -> lineage
query engine -> analysis utilities -> accuracy metrics against the exact
generating network.
"""

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.bench import aggregate, mask_relation, score_prediction
from repro.bench.metrics import true_joint_posterior
from repro.core import derive_probabilistic_database
from repro.datasets import load_census
from repro.probdb import (
    QueryEngine,
    attribute_distribution,
    expected_count,
    rank_blocks_by_entropy,
)
from repro.relational import Relation


@pytest.fixture(scope="module")
def pipeline():
    rng = np.random.default_rng(99)
    data, net = load_census(6000, rng=rng)
    train, test = data.split(0.98, rng)
    test = Relation.from_codes(test.schema, test.codes[:60])
    masked = mask_relation(test, [1, 2], rng)
    combined = Relation(train.schema, list(train) + list(masked))
    result = derive_probabilistic_database(
        combined,
        config=DeriveConfig(support_threshold=0.002, num_samples=600, burn_in=80),
        rng=1,
    )
    return net, test, masked, result


class TestDerivedDatabase:
    def test_block_count(self, pipeline):
        net, test, masked, result = pipeline
        assert len(result.database.blocks) == len(masked)

    def test_accuracy_against_exact_posteriors(self, pipeline):
        net, test, masked, result = pipeline
        blocks = {b.base: b for b in result.database.blocks}
        scores = [
            score_prediction(
                true_joint_posterior(net, t), blocks[t].distribution
            )
            for t in masked
        ]
        agg = aggregate(scores)
        assert agg.mean_kl < 0.25
        assert agg.top1_accuracy > 0.5

    def test_most_probable_world_recovers_values(self, pipeline):
        """Most-probable-world imputation beats random guessing by far."""
        net, test, masked, result = pipeline
        imputed = {
            b.base: b.most_probable_completion()
            for b in result.database.blocks
        }
        hits = total = 0
        for original, hidden in zip(test, masked):
            guess = imputed[hidden]
            for pos in hidden.missing_positions:
                total += 1
                hits += guess.values()[pos] == original.values()[pos]
        assert total > 0
        assert hits / total > 0.45  # random floor is ~1/3 per attribute


class TestQueriesOverDerivedDB:
    def test_attribute_distribution_is_plausible(self, pipeline):
        net, test, masked, result = pipeline
        dist = attribute_distribution(result.database, "income")
        assert sum(dist.probs) == pytest.approx(1.0)
        # Every income level appears with real mass in 6k census rows.
        assert all(p > 0.05 for p in dist.probs)

    def test_expected_count_bounds(self, pipeline):
        net, test, masked, result = pipeline
        db = result.database
        n = expected_count(db, lambda t: True)
        assert n == pytest.approx(db.total_tuples())
        rich = expected_count(db, lambda t: t.value("wealth") == "high")
        assert 0 < rich < n

    def test_engine_selection_on_uncertain_rows(self, pipeline):
        from repro.probdb import TRUE

        net, test, masked, result = pipeline
        engine = QueryEngine(result.database)
        uncertain = [r for r in engine.scan() if r.event is not TRUE]
        rows = engine.select(
            uncertain, lambda r: r.value("income") == "high"
        )
        results = engine.evaluate(engine.project(rows, ["education"]))
        for t in results:
            assert 0.0 < t.probability <= 1.0 + 1e-9

    def test_entropy_ranking_covers_all_blocks(self, pipeline):
        net, test, masked, result = pipeline
        ranked = rank_blocks_by_entropy(result.database)
        assert len(ranked) == len(result.database.blocks)
        entropies = [h for h, _ in ranked]
        assert entropies == sorted(entropies, reverse=True)
