"""Tests for the learn-once / serve-many Session facade (repro.api.session)."""

import pytest

from repro.api.config import DeriveConfig
from repro.api.query import Q, SelectionQuery
from repro.api.session import Session, SessionError
from repro.core import derive_probabilistic_database, infer_single
from repro.core.inference import VoterChoice, VotingScheme


@pytest.fixture
def config():
    return DeriveConfig(
        support_threshold=0.1, num_samples=200, burn_in=20, seed=0
    )


@pytest.fixture
def session(config):
    return Session(config)


class TestModelRegistry:
    def test_learn_registers(self, session, fig1_relation):
        model = session.learn(fig1_relation)
        assert session.models == ("default",)
        assert session.model() is model

    def test_unknown_model_raises(self, session):
        with pytest.raises(SessionError, match="no model"):
            session.model("nope")

    def test_warm_engine_is_cached_per_model(self, session, fig1_relation):
        session.learn(fig1_relation)
        assert session.engine() is session.engine()

    def test_reregistering_invalidates_engine(self, session, fig1_relation):
        model = session.learn(fig1_relation)
        engine = session.engine()
        session.register_model("default", model)
        assert session.engine() is not engine

    def test_save_load_round_trip(self, session, fig1_relation, tmp_path):
        session.learn(fig1_relation)
        path = tmp_path / "model.json"
        session.save_model(path)

        other = Session(session.config)
        loaded = other.load_model(path, model="census")
        assert other.models == ("census",)
        assert loaded.size() == session.model().size()


class TestDerive:
    def test_matches_direct_pipeline(self, session, config, fig1_relation):
        direct = derive_probabilistic_database(fig1_relation, config=config)
        via_session = session.derive(fig1_relation)
        assert len(via_session.database.blocks) == len(direct.database.blocks)
        for mine, theirs in zip(
            via_session.database.blocks, direct.database.blocks
        ):
            assert mine.base == theirs.base
            assert mine.distribution.outcomes == theirs.distribution.outcomes
            assert (mine.distribution.probs == theirs.distribution.probs).all()

    def test_learns_once_then_reuses(self, session, fig1_relation):
        first = session.derive(fig1_relation)
        model = session.model()
        second = session.derive(fig1_relation)
        assert session.model() is model  # no re-learning
        assert first.learn_result is None and second.learn_result is None

    def test_registers_database_for_queries(self, session, fig1_relation):
        session.derive(fig1_relation, name="fig1")
        assert session.databases == ("fig1",)
        assert session.database("fig1") is session.result("fig1").database

    def test_unknown_database_raises(self, session):
        with pytest.raises(SessionError, match="no derived database"):
            session.database("nope")

    def test_per_call_config_override(self, session, fig1_relation):
        result = session.derive(
            fig1_relation, config=session.config.replacing(num_samples=50)
        )
        assert len(result.database.blocks) == fig1_relation.num_incomplete

    def test_partial_override_keeps_session_config(self, session, config):
        """A partial per-call dict overrides *on top of* the session config,
        not on top of the global defaults."""
        resolved = session.effective_config({"num_samples": 50})
        assert resolved.num_samples == 50
        assert resolved.support_threshold == config.support_threshold  # 0.1
        assert resolved.seed == config.seed
        assert session.effective_config(None) is session.config


class TestInferBatch:
    def test_matches_naive_single_inference(self, session, fig1_relation):
        session.learn(fig1_relation)
        singles = [
            t for t in fig1_relation.incomplete_part() if t.num_missing == 1
        ]
        dists = session.infer_batch(singles)
        for t, dist in zip(singles, dists):
            naive = infer_single(
                t,
                session.model()[t.missing_positions[0]],
                VoterChoice.BEST,
                VotingScheme.AVERAGED,
            )
            assert dist.outcomes == naive.outcomes
            assert (dist.probs == naive.probs).all()


class TestQuery:
    def test_accepts_spec_predicate_and_dict(self, session, fig1_relation):
        session.derive(fig1_relation)
        spec = SelectionQuery(where=Q.eq("nw", "500K"), project=("age",))
        from_spec = session.query(spec)
        from_dict = session.query(spec.to_dict())
        from_predicate = session.query(Q.eq("nw", "500K"))
        assert [(t.values, t.probability) for t in from_spec] == [
            (t.values, t.probability) for t in from_dict
        ]
        assert from_predicate  # bare predicate selects whole rows
        assert len(from_predicate[0].values) == len(fig1_relation.schema)

    def test_bad_spec_type_rejected(self, session, fig1_relation):
        session.derive(fig1_relation)
        with pytest.raises(TypeError):
            session.query(lambda r: True)
