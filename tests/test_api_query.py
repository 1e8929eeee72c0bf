"""Tests for the serializable query AST (repro.api.query).

The load-bearing property: a query expressed as JSON, deserialized and
evaluated, returns *bit-identical* results to the hand-written lambda path
on the same engine — selection and self-join alike.
"""

import json

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.api.query import (
    And,
    Cmp,
    In,
    Not,
    Q,
    SelectionQuery,
    SelfJoinQuery,
    predicate_from_dict,
    query_from_dict,
)
from repro.bench import mask_relation
from repro.core import derive_probabilistic_database
from repro.datasets import load_census
from repro.probdb import QueryEngine
from repro.relational import Relation


def _round_trip_predicate(pred):
    return predicate_from_dict(json.loads(json.dumps(pred.to_dict())))


def _round_trip_query(spec):
    return query_from_dict(json.loads(json.dumps(spec.to_dict())))


class TestPredicateAst:
    def test_builders(self):
        assert Q.eq("age", "30") == Cmp("age", "eq", "30")
        assert Q.in_("age", ["20", "30"]) == In("age", ("20", "30"))
        assert Q.not_(Q.eq("a", 1)) == Not(Cmp("a", "eq", 1))
        assert Q.and_(Q.eq("a", 1), Q.ne("b", 2)) == And(
            (Cmp("a", "eq", 1), Cmp("b", "ne", 2))
        )

    def test_symbolic_op_aliases_normalize(self):
        assert Q.cmp("age", "==", "30") == Q.eq("age", "30")
        assert Q.cmp("age", ">=", "30").op == "ge"

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison operator"):
            Q.cmp("age", "~", "30")

    @pytest.mark.parametrize(
        "pred",
        [
            Q.eq("age", "30"),
            Q.ne("edu", "HS"),
            Q.cmp("inc", "le", "50K"),
            Q.in_("age", ("20", "40")),
            Q.not_(Q.eq("nw", "500K")),
            Q.and_(Q.eq("age", "20"), Q.or_(Q.eq("nw", "500K"), Q.ne("edu", "HS"))),
        ],
    )
    def test_round_trip(self, pred):
        assert _round_trip_predicate(pred) == pred

    def test_compiled_semantics(self, fig1_relation):
        rows = list(fig1_relation.complete_part())
        pred = Q.and_(Q.eq("age", "20"), Q.not_(Q.eq("nw", "500K")))
        fn = pred.compile()
        expected = [
            t.value("age") == "20" and not t.value("nw") == "500K" for t in rows
        ]
        assert [fn(t) for t in rows] == expected
        # The node itself is callable too.
        assert [pred(t) for t in rows] == expected

    def test_empty_connectives(self, fig1_relation):
        t = next(iter(fig1_relation))
        assert Q.and_()(t) is True
        assert Q.or_()(t) is False


class TestQuerySpecs:
    def test_selection_round_trip(self):
        spec = SelectionQuery(where=Q.eq("nw", "500K"), project=["age"])
        again = _round_trip_query(spec)
        assert again == spec
        assert again.project == ("age",)

    def test_self_join_round_trip(self):
        spec = SelfJoinQuery(
            on=(("nw", "nw"),),
            where=Q.ne("l_age", "20"),
            project=("l_age", "r_age"),
        )
        assert _round_trip_query(spec) == spec

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown query type"):
            query_from_dict({"type": "cartesian"})


@pytest.fixture(scope="module")
def fig1_engine():
    from tests.conftest import FIG1_ROWS

    from repro.relational import Schema

    schema = Schema.from_domains(
        {
            "age": ["20", "30", "40"],
            "edu": ["HS", "BS", "MS"],
            "inc": ["50K", "100K"],
            "nw": ["100K", "500K"],
        }
    )
    relation = Relation.from_rows(schema, FIG1_ROWS)
    return QueryEngine.from_relation(
        relation,
        config=DeriveConfig(support_threshold=0.1, num_samples=200, burn_in=20),
        rng=0,
    )


@pytest.fixture(scope="module")
def census_engine():
    """A derived census database, as in the paper's evaluation setting."""
    rng = np.random.default_rng(7)
    data, _ = load_census(3000, rng=rng)
    train, test = data.split(0.98, rng)
    test = Relation.from_codes(test.schema, test.codes[:40])
    masked = mask_relation(test, [1, 2], rng)
    combined = Relation(train.schema, list(train) + list(masked))
    result = derive_probabilistic_database(
        combined,
        config=DeriveConfig(support_threshold=0.002, num_samples=300, burn_in=50),
        rng=1,
    )
    return QueryEngine(result.database)


def _assert_bit_identical(json_results, lambda_results):
    assert len(json_results) == len(lambda_results)
    for got, want in zip(json_results, lambda_results):
        assert got.attributes == want.attributes
        assert got.values == want.values
        assert got.probability == want.probability  # bit-identical floats


class TestJsonEqualsLambdaPath:
    def test_fig1_selection(self, fig1_engine):
        spec = _round_trip_query(
            SelectionQuery(where=Q.eq("nw", "500K"), project=("age",))
        )
        _assert_bit_identical(
            spec.run(fig1_engine),
            fig1_engine.selection_query(
                lambda r: r.value("nw") == "500K", project_to=("age",)
            ),
        )

    def test_fig1_self_join(self, fig1_engine):
        spec = _round_trip_query(
            SelfJoinQuery(
                on=(("nw", "nw"),),
                where=Q.ne("l_age", "20"),
                project=("l_age", "r_age"),
            )
        )
        _assert_bit_identical(
            spec.run(fig1_engine),
            fig1_engine.self_join_query(
                on=(("nw", "nw"),),
                predicate=lambda r: r.value("l_age") != "20",
                project_to=("l_age", "r_age"),
            ),
        )

    def test_census_selection(self, census_engine):
        # education is one of the masked attributes, so this touches blocks.
        spec = _round_trip_query(
            SelectionQuery(
                where=Q.and_(Q.eq("income", "high"), Q.ne("education", "HS")),
                project=("age",),
            )
        )
        json_results = spec.run(census_engine)
        lambda_results = census_engine.selection_query(
            lambda r: r.value("income") == "high"
            and r.value("education") != "HS",
            project_to=("age",),
        )
        assert json_results  # non-vacuous
        _assert_bit_identical(json_results, lambda_results)

    def test_census_membership(self, census_engine):
        spec = _round_trip_query(
            SelectionQuery(
                where=Q.in_("education", ("BS", "MS+")), project=("income",)
            )
        )
        _assert_bit_identical(
            spec.run(census_engine),
            census_engine.selection_query(
                lambda r: r.value("education") in ("BS", "MS+"),
                project_to=("income",),
            ),
        )


class TestCompileOnce:
    def test_call_compiles_each_node_once(self, fig1_relation, monkeypatch):
        calls = []
        compile_cmp = Cmp.compile

        def counting(self):
            calls.append(self)
            return compile_cmp(self)

        monkeypatch.setattr(Cmp, "compile", counting)
        pred = Q.and_(Q.eq("age", "20"), Q.not_(Q.eq("nw", "500K")))
        rows = list(fig1_relation.complete_part()) * 20
        assert len(rows) > 100
        for t in rows:
            pred(t)
        assert len(calls) == 2  # one per Cmp leaf, not one per row

    def test_called_predicates_still_pickle(self, fig1_relation):
        import pickle

        pred = Q.or_(Q.eq("age", "30"), Q.in_("edu", ("BS",)))
        t = next(iter(fig1_relation))
        expected = pred(t)
        again = pickle.loads(pickle.dumps(pred))
        assert again == pred and again(t) == expected


@pytest.fixture
def empty_engine(fig1_schema):
    from repro.probdb import ProbabilisticDatabase

    return QueryEngine(ProbabilisticDatabase(fig1_schema))


class TestSpecCheckedUpFront:
    """Unknown names and impossible comparisons fail whatever the data."""

    @pytest.mark.parametrize(
        "spec",
        [
            SelectionQuery(where=Q.eq("bogus", "20")),
            SelectionQuery(where=Q.not_(Q.or_(Q.in_("bogus", ("20",))))),
            SelectionQuery(where=Q.eq("age", "20"), project=("age", "bogus")),
            SelectionQuery(project=("bogus",)),
        ],
    )
    def test_unknown_attribute_on_empty_database(self, empty_engine, spec):
        with pytest.raises(KeyError, match="no attribute 'bogus' in row"):
            spec.run(empty_engine)

    def test_unknown_attribute_behind_false_conjunct(self, fig1_engine):
        # No row has age 99, so the row-at-a-time path never reached the
        # second conjunct and returned [].
        where = Q.and_(Q.eq("age", "99"), Q.eq("bogus", "20"))
        assert fig1_engine.selection_query(where.compile()) == []
        with pytest.raises(KeyError, match="no attribute 'bogus' in row"):
            SelectionQuery(where=where).run(fig1_engine)

    def test_unorderable_comparison_on_empty_database(self, empty_engine):
        with pytest.raises(TypeError, match="not supported between"):
            SelectionQuery(where=Q.lt("age", 5)).run(empty_engine)

    def test_unorderable_comparison_behind_false_conjunct(self, fig1_engine):
        where = Q.and_(Q.eq("age", "99"), Q.lt("age", 5))
        with pytest.raises(TypeError, match="not supported between"):
            SelectionQuery(where=where).run(fig1_engine)

    def test_equality_with_a_foreign_type_is_just_false(self, empty_engine):
        assert SelectionQuery(where=Q.eq("age", 20)).run(empty_engine) == []
