"""End-to-end integration test replaying the paper's running example.

Works through Sections I-II on the Fig. 1 matchmaking relation: supports,
subsumption, the meta-rule construction example, MRSL matching for t1, and
the final derived probabilistic database.
"""

import pytest

from repro import derive_probabilistic_database
from repro.api.config import DeriveConfig
from repro.core import learn_mrsl, mine_frequent_itemsets
from repro.probdb import expected_count
from repro.relational import make_tuple


class TestSectionII:
    def test_support_of_t1(self, fig1_schema, fig1_relation):
        """supp(t1) = 3/8: t4, t6 and t7 match <age=20, edu=HS>."""
        t1 = make_tuple(fig1_schema, {"age": "20", "edu": "HS"})
        assert fig1_relation.support(t1) == pytest.approx(3 / 8)

    def test_meta_rule_construction_example(self, fig1_schema, fig1_relation):
        """The Def. 2.6 walk-through: supports over edu=HS sum correctly.

        supp(t8) = supp(t1) + supp(t11) + supp(t14), because t1, t11, t14
        agree on edu=HS and enumerate all ages.
        """
        t8 = make_tuple(fig1_schema, {"edu": "HS"})
        parts = [
            make_tuple(fig1_schema, {"age": a, "edu": "HS"})
            for a in ("20", "30", "40")
        ]
        total = sum(fig1_relation.support(p) for p in parts)
        assert fig1_relation.support(t8) == pytest.approx(total)

    def test_association_rule_r_t3_t5(self, fig1_schema, fig1_relation):
        """r: <t3, t5> with body {age=20} and head {inc=50K}."""
        itemsets = mine_frequent_itemsets(
            fig1_relation.complete_part(), threshold=0.1
        )
        age, inc = fig1_schema.index("age"), fig1_schema.index("inc")
        a20 = fig1_schema["age"].code("20")
        i50 = fig1_schema["inc"].code("50K")
        body = ((age, a20),)
        full = tuple(sorted([(age, a20), (inc, i50)]))
        conf = itemsets.support(full) / itemsets.support(body)
        # Among the 4 complete age=20 points, 3 have inc=50K.
        assert conf == pytest.approx(3 / 4)


class TestSectionIV:
    def test_t1_has_five_matching_meta_rules(self, fig1_schema, fig1_relation):
        """Fig. 2 / Section I-B: five meta-rules match t1 at low support.

        The exact five of the paper correspond to the bodies {}, {edu=HS},
        {inc=50K}, {nw=500K}, {edu=HS, inc=50K}; whether each exists in the
        mined lattice depends on theta, so we mine at 0.1 and check the
        matched bodies are the expected subset family.
        """
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        t1 = make_tuple(
            fig1_schema, {"edu": "HS", "inc": "50K", "nw": "500K"}
        )
        matches = model["age"].matching(t1)
        bodies = {m.body for m in matches}
        edu, inc, nw = (
            fig1_schema.index("edu"),
            fig1_schema.index("inc"),
            fig1_schema.index("nw"),
        )
        hs = fig1_schema["edu"].code("HS")
        i50 = fig1_schema["inc"].code("50K")
        n500 = fig1_schema["nw"].code("500K")
        expected = {
            (),
            ((edu, hs),),
            ((inc, i50),),
            ((nw, n500),),
        }
        assert expected.issubset(bodies)
        # Every matched body only uses t1's known attribute-value pairs.
        allowed = {(edu, hs), (inc, i50), (nw, n500)}
        for body in bodies:
            assert set(body).issubset(allowed)


class TestEndToEnd:
    def test_derived_database_answers_queries(self, fig1_relation):
        result = derive_probabilistic_database(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=400, burn_in=50),
            rng=0,
        )
        db = result.database
        total = expected_count(db, lambda t: True)
        assert total == pytest.approx(17.0)
        rich = expected_count(db, lambda t: t.value("nw") == "500K")
        assert 0.0 < rich < 17.0

    def test_block_marginals_are_plausible(self, fig1_schema, fig1_relation):
        """t16 <40, HS, ?, 500K>: the mined data favors inc=100K.

        Among complete points with age=40 (t13, t15, t17): two have
        inc=100K.  The prediction should not be degenerate and should sum
        to 1.
        """
        result = derive_probabilistic_database(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=400, burn_in=50),
            rng=0,
        )
        t16 = make_tuple(
            fig1_schema, {"age": "40", "edu": "HS", "nw": "500K"}
        )
        block = next(b for b in result.database.blocks if b.base == t16)
        m = block.marginal("inc")
        assert m["50K"] + m["100K"] == pytest.approx(1.0)
        assert 0.0 < m["100K"] < 1.0
