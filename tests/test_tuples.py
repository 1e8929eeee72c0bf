"""Unit tests for tuples, matching and subsumption (Defs 2.1-2.4)."""

import numpy as np
import pytest

from repro.relational import (
    MISSING,
    MISSING_CODE,
    RelTuple,
    SchemaError,
    make_tuple,
    proper_subsumes,
    subsumes,
)


@pytest.fixture
def t1(fig1_schema):
    # Paper's t1: <age=20, edu=HS, inc=?, nw=?>
    return make_tuple(fig1_schema, {"age": "20", "edu": "HS"})


@pytest.fixture
def t4(fig1_schema):
    # Paper's t4 (a point): <age=20, edu=HS, inc=100K, nw=500K>
    return make_tuple(fig1_schema, ["20", "HS", "100K", "500K"])


class TestConstruction:
    def test_from_mapping_fills_missing(self, fig1_schema):
        t = make_tuple(fig1_schema, {"age": "30"})
        assert t.value("age") == "30"
        assert t.value("edu") == MISSING
        assert t.num_missing == 3

    def test_from_sequence_with_question_marks(self, fig1_schema):
        t = make_tuple(fig1_schema, ["20", "?", "50K", "?"])
        assert t.values() == ("20", MISSING, "50K", MISSING)

    def test_sequence_length_mismatch_raises(self, fig1_schema):
        with pytest.raises(SchemaError, match="expected 4 values"):
            make_tuple(fig1_schema, ["20", "HS"])

    def test_bad_value_raises(self, fig1_schema):
        with pytest.raises(SchemaError, match="not in the domain"):
            make_tuple(fig1_schema, {"age": "99"})

    def test_bad_code_raises(self, fig1_schema):
        with pytest.raises(SchemaError, match="out of range"):
            RelTuple(fig1_schema, [5, 0, 0, 0])

    def test_codes_are_readonly(self, t1):
        with pytest.raises(ValueError):
            t1.codes[0] = 1


class TestCompleteness:
    def test_complete_tuple_is_point(self, t4):
        assert t4.is_complete
        assert t4.num_missing == 0
        assert t4.missing_positions == ()

    def test_incomplete_tuple(self, t1):
        assert not t1.is_complete
        assert t1.complete_positions == (0, 1)
        assert t1.missing_positions == (2, 3)

    def test_as_dict_excludes_missing_by_default(self, t1):
        assert t1.as_dict() == {"age": "20", "edu": "HS"}

    def test_as_dict_include_missing(self, t1):
        d = t1.as_dict(include_missing=True)
        assert d["inc"] == MISSING
        assert d["nw"] == MISSING


class TestMatching:
    def test_point_matches_tuple_def23(self, t1, t4):
        # "point t4 supports tuple t1"
        assert t1.matches_point(t4.codes)

    def test_point_not_matching(self, fig1_schema, t1):
        t2 = make_tuple(fig1_schema, ["20", "BS", "50K", "100K"])
        # "while point t2 does not"
        assert not t1.matches_point(t2.codes)

    def test_fully_missing_tuple_matches_everything(self, fig1_schema, t4):
        t_star = RelTuple(fig1_schema, [MISSING_CODE] * 4)
        assert t_star.matches_point(t4.codes)

    def test_match_mask_over_matrix(self, fig1_schema, t1):
        points = np.array(
            [
                [0, 0, 1, 1],  # 20,HS,100K,500K -> match
                [0, 1, 0, 0],  # 20,BS -> no
                [0, 0, 0, 0],  # 20,HS -> match
            ],
            dtype=np.int32,
        )
        assert t1.match_mask(points).tolist() == [True, False, True]


class TestSubsumption:
    def test_paper_example_t1_subsumes_t5(self, fig1_schema, t1):
        t5 = make_tuple(fig1_schema, {"age": "20"})
        # t1 < t5 in the paper's notation means t5 subsumes t1... Def 2.4:
        # t1 subsumes t5's *more complete* tuples.  Here t5 knows only age,
        # t1 knows age and edu, so t5 subsumes t1 ("t1 ≺ t5").
        assert proper_subsumes(t5, t1)
        assert not proper_subsumes(t1, t5)

    def test_no_subsumption_between_disagreeing(self, fig1_schema, t1):
        t3 = make_tuple(fig1_schema, {"age": "20", "inc": "50K"})
        # "No subsumption holds between t1 and t3."
        assert not proper_subsumes(t1, t3)
        assert not proper_subsumes(t3, t1)

    def test_subsumption_requires_agreement(self, fig1_schema):
        g = make_tuple(fig1_schema, {"age": "20"})
        s = make_tuple(fig1_schema, {"age": "30", "edu": "HS"})
        assert not proper_subsumes(g, s)

    def test_proper_subsumption_is_strict(self, t1):
        assert subsumes(t1, t1)
        assert not proper_subsumes(t1, t1)

    def test_subsumption_is_transitive(self, fig1_schema):
        a = make_tuple(fig1_schema, {"age": "20"})
        b = make_tuple(fig1_schema, {"age": "20", "edu": "HS"})
        c = make_tuple(fig1_schema, {"age": "20", "edu": "HS", "inc": "50K"})
        assert proper_subsumes(a, b) and proper_subsumes(b, c)
        assert proper_subsumes(a, c)


class TestTransforms:
    def test_complete_with(self, fig1_schema, t1):
        done = t1.complete_with({"inc": "50K", "nw": "100K"})
        assert done.is_complete
        assert done.value("inc") == "50K"

    def test_complete_with_known_attribute_raises(self, t1):
        with pytest.raises(SchemaError, match="already has a value"):
            t1.complete_with({"age": "30"})

    def test_restrict(self, t4):
        r = t4.restrict([0, 2])
        assert r.value("age") == "20"
        assert r.value("inc") == "100K"
        assert r.value("edu") == MISSING

    def test_equality_and_hash(self, fig1_schema):
        a = make_tuple(fig1_schema, {"age": "20"})
        b = make_tuple(fig1_schema, {"age": "20"})
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_tuple(fig1_schema, {"age": "30"})

    def test_equal_codes_under_different_schemas_are_unequal(self, fig1_schema):
        """Equality compares code bytes only once the schemas agree."""
        from repro.relational import Schema

        renamed = Schema.from_domains(
            {
                f"{attr.name}_2": list(attr.domain)
                for attr in fig1_schema
            }
        )
        codes = [0, 1, MISSING_CODE, 1]
        a = RelTuple(fig1_schema, codes)
        b = RelTuple(renamed, codes)
        assert a.codes.tobytes() == b.codes.tobytes()
        assert a != b and b != a
        assert len({a, b}) == 2
        assert a == RelTuple(fig1_schema, codes)
        assert a != codes  # not a RelTuple: no structural equality

    def test_repr_is_readable(self, t1):
        assert "age=20" in repr(t1)
        assert "inc=?" in repr(t1)

    def test_pickle_recomputes_hash_across_processes(self, fig1_schema):
        # The cached hash is salted per process (PYTHONHASHSEED); a pickled
        # tuple restored in another interpreter must not keep the stale
        # value, or journaled blocks stop matching their workload tuples.
        import os
        import pickle
        import subprocess
        import sys

        t = make_tuple(fig1_schema, {"age": "20", "edu": "HS"})
        out = subprocess.run(
            [
                sys.executable, "-c",
                "import pickle, sys; "
                "sys.stdout.buffer.write("
                "pickle.dumps(pickle.loads(sys.stdin.buffer.read())))",
            ],
            input=pickle.dumps(t),
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": "4242"},
        )
        back = pickle.loads(out.stdout)
        assert back == t
        assert hash(back) == hash(t)
        assert back in {t}
