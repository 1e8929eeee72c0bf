"""Unit tests for Relation: Rc/Ri split and support counting."""

import numpy as np
import pytest

from repro.relational import Relation, SchemaError, make_tuple


class TestConstruction:
    def test_empty_relation(self, fig1_schema):
        rel = Relation(fig1_schema)
        assert len(rel) == 0
        assert rel.num_complete == 0

    def test_from_rows(self, fig1_relation):
        assert len(fig1_relation) == 17

    def test_from_codes_validates_shape(self, fig1_schema):
        with pytest.raises(SchemaError):
            Relation.from_codes(fig1_schema, np.zeros((3, 2), dtype=np.int32))

    def test_schema_mismatch_rejected(self, fig1_schema, fig1_relation):
        from repro.relational import Schema

        other = Schema.from_domains({"x": [1, 2]})
        t = make_tuple(other, {"x": 1})
        with pytest.raises(SchemaError):
            fig1_relation.append(t)

    def test_append_and_extend(self, fig1_schema):
        rel = Relation(fig1_schema)
        t = make_tuple(fig1_schema, ["20", "HS", "50K", "100K"])
        rel.append(t)
        rel.extend([t, t])
        assert len(rel) == 3

    def test_getitem_roundtrip(self, fig1_relation, fig1_schema):
        t = fig1_relation[1]
        assert t == make_tuple(fig1_schema, ["20", "BS", "50K", "100K"])

    def test_iteration_yields_tuples(self, fig1_relation):
        tuples = list(fig1_relation)
        assert len(tuples) == 17
        assert tuples[0].value("age") == "20"


def _iteration_sources(fig1_schema, fig1_relation):
    """Relations built by every constructor path that feeds iteration."""
    from repro.relational import ChangeSet, update

    changed = fig1_relation.copy()
    changed.apply_changeset(
        ChangeSet(
            [
                update(0, {"inc": "50K"}, source="t"),
                update(1, {"edu": "?"}, source="t"),
            ]
        )
    )
    return {
        "from_codes": Relation.from_codes(fig1_schema, fig1_relation.codes),
        "from_rows": Relation.from_rows(
            fig1_schema, [t.values() for t in fig1_relation]
        ),
        "apply_changeset": changed,
        "incomplete_part": fig1_relation.incomplete_part(),
        "empty": Relation(fig1_schema),
    }


class TestTrustedIteration:
    """Iteration skips RelTuple's per-cell validation; nothing else changes."""

    @pytest.mark.parametrize(
        "source",
        ["from_codes", "from_rows", "apply_changeset", "incomplete_part", "empty"],
    )
    def test_matches_validating_constructor(
        self, fig1_schema, fig1_relation, source
    ):
        import pickle

        from repro.relational import RelTuple

        relation = _iteration_sources(fig1_schema, fig1_relation)[source]
        tuples = list(relation)
        assert len(tuples) == len(relation)
        for t, row in zip(tuples, relation.codes):
            want = RelTuple(fig1_schema, row.copy())
            assert t == want and hash(t) == hash(want)
            assert t.missing_positions == want.missing_positions
            assert t.num_missing == want.num_missing
            assert t.is_complete == want.is_complete
            assert t.codes.dtype == np.int32
            assert not t.codes.flags.writeable
            back = pickle.loads(pickle.dumps(t))
            assert back == t and hash(back) == hash(t)
            assert back.missing_positions == t.missing_positions

    def test_rows_are_views_of_the_matrix(self, fig1_relation):
        first = next(iter(fig1_relation))
        assert np.shares_memory(first.codes, fig1_relation.codes)
        with pytest.raises(ValueError):
            first.codes[0] = 0


class TestSplit:
    def test_complete_incomplete_partition(self, fig1_relation):
        # Fig. 1 has 8 points (t2,t4,t6,t7,t9,t13,t15,t17) and 9 incomplete.
        assert fig1_relation.num_complete == 8
        assert fig1_relation.num_incomplete == 9
        assert len(fig1_relation.complete_part()) == 8
        assert len(fig1_relation.incomplete_part()) == 9

    def test_complete_part_is_all_points(self, fig1_relation):
        assert all(t.is_complete for t in fig1_relation.complete_part())

    def test_incomplete_part_has_missing(self, fig1_relation):
        assert all(not t.is_complete for t in fig1_relation.incomplete_part())

    def test_random_split_partitions_rows(self, fig1_relation, rng):
        a, b = fig1_relation.split(0.5, rng)
        assert len(a) + len(b) == len(fig1_relation)

    def test_split_fraction_bounds(self, fig1_relation, rng):
        with pytest.raises(ValueError):
            fig1_relation.split(0.0, rng)
        with pytest.raises(ValueError):
            fig1_relation.split(1.0, rng)


class TestSupport:
    def test_paper_support_example(self, fig1_schema, fig1_relation):
        # supp(t1) = 3/8: points t4, t6, t7 match <age=20, edu=HS>.
        t1 = make_tuple(fig1_schema, {"age": "20", "edu": "HS"})
        assert fig1_relation.count_matches(t1) == 3
        assert fig1_relation.support(t1) == pytest.approx(3 / 8)

    def test_support_of_fully_missing_is_one(self, fig1_schema, fig1_relation):
        t = make_tuple(fig1_schema, {})
        assert fig1_relation.support(t) == pytest.approx(1.0)

    def test_support_counts_only_points(self, fig1_schema, fig1_relation):
        # <age=20> appears in many incomplete rows; only points may count.
        t = make_tuple(fig1_schema, {"age": "20"})
        assert fig1_relation.count_matches(t) == 4  # t2, t4, t6, t7

    def test_zero_support(self, fig1_schema, fig1_relation):
        t = make_tuple(fig1_schema, {"age": "30", "edu": "MS"})
        assert fig1_relation.support(t) == 0.0

    def test_support_on_empty_relation(self, fig1_schema):
        rel = Relation(fig1_schema)
        t = make_tuple(fig1_schema, {"age": "20"})
        assert rel.support(t) == 0.0

    def test_codes_view_is_readonly(self, fig1_relation):
        with pytest.raises(ValueError):
            fig1_relation.codes[0, 0] = 0
