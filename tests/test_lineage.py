"""Unit tests for event lineage and exact probability computation."""

import numpy as np
import pytest

from repro.probdb import (
    FALSE,
    TRUE,
    BlockChoice,
    Distribution,
    ProbabilisticDatabase,
    TupleBlock,
    conjunction,
    disjunction,
    estimate_event_probability,
    event_probability,
    negation,
)
from repro.relational import make_tuple


@pytest.fixture
def db(fig1_schema):
    blocks = [
        TupleBlock(
            make_tuple(fig1_schema, {"age": "30", "edu": "MS", "inc": "50K"}),
            Distribution([("100K",), ("500K",)], [0.6, 0.4]),
        ),
        TupleBlock(
            make_tuple(fig1_schema, {"age": "40", "edu": "HS", "nw": "500K"}),
            Distribution([("50K",), ("100K",)], [0.3, 0.7]),
        ),
    ]
    return ProbabilisticDatabase(fig1_schema, [], blocks)


class TestConstantFolding:
    def test_conjunction_identity_and_zero(self):
        a = BlockChoice(0, "x")
        assert conjunction([TRUE, a]) is a
        assert conjunction([FALSE, a]) is FALSE
        assert conjunction([]) is TRUE

    def test_disjunction_identity_and_one(self):
        a = BlockChoice(0, "x")
        assert disjunction([FALSE, a]) is a
        assert disjunction([TRUE, a]) is TRUE
        assert disjunction([]) is FALSE

    def test_contradictory_block_choices_fold_to_false(self):
        a = BlockChoice(0, "x")
        b = BlockChoice(0, "y")
        assert conjunction([a, b]) is FALSE

    def test_same_choice_twice_is_fine(self):
        a = BlockChoice(0, "x")
        e = conjunction([a, BlockChoice(0, "x")])
        assert e.blocks() == frozenset({0})

    def test_negation_folds(self):
        assert negation(TRUE) is FALSE
        assert negation(FALSE) is TRUE
        a = BlockChoice(0, "x")
        assert negation(negation(a)) is a

    def test_nested_flattening(self):
        a, b, c = BlockChoice(0, "x"), BlockChoice(1, "y"), BlockChoice(2, "z")
        e = conjunction([conjunction([a, b]), c])
        assert e.blocks() == frozenset({0, 1, 2})


class TestEventProbability:
    def test_constants(self, db):
        assert event_probability(TRUE, db) == 1.0
        assert event_probability(FALSE, db) == 0.0

    def test_atom_probability(self, db):
        assert event_probability(BlockChoice(0, ("100K",)), db) == pytest.approx(0.6)

    def test_conjunction_of_independent_blocks(self, db):
        e = BlockChoice(0, ("100K",)) & BlockChoice(1, ("50K",))
        assert event_probability(e, db) == pytest.approx(0.6 * 0.3)

    def test_disjunction_within_block_is_additive(self, db):
        e = BlockChoice(0, ("100K",)) | BlockChoice(0, ("500K",))
        assert event_probability(e, db) == pytest.approx(1.0)

    def test_disjunction_across_blocks_inclusion_exclusion(self, db):
        e = BlockChoice(0, ("100K",)) | BlockChoice(1, ("50K",))
        assert event_probability(e, db) == pytest.approx(0.6 + 0.3 - 0.6 * 0.3)

    def test_negation(self, db):
        e = negation(BlockChoice(0, ("100K",)))
        assert event_probability(e, db) == pytest.approx(0.4)

    def test_contradiction_within_block(self, db):
        e = conjunction([BlockChoice(0, ("100K",)), BlockChoice(0, ("500K",))])
        assert event_probability(e, db) == 0.0

    def test_block_cap_enforced(self, db):
        # Atom conjunctions/disjunctions use closed forms regardless of
        # block count; only mixed shapes fall back to Shannon expansion,
        # where the cap applies.
        e = negation(BlockChoice(0, ("100K",))) & BlockChoice(1, ("50K",))
        with pytest.raises(ValueError, match="capped"):
            event_probability(e, db, max_blocks=1)

    def test_closed_forms_match_expansion(self, db):
        cases = [
            BlockChoice(0, ("100K",)) & BlockChoice(1, ("50K",)),
            BlockChoice(0, ("100K",)) | BlockChoice(1, ("50K",)),
            BlockChoice(0, ("100K",)) | BlockChoice(0, ("500K",)),
        ]
        from repro.probdb.lineage import _Not

        for e in cases:
            closed = event_probability(e, db)
            # Force Shannon expansion by wrapping in a raw double negation
            # (the folding constructors would collapse it back to `e`).
            expanded = event_probability(_Not(_Not(e)), db)
            assert closed == pytest.approx(expanded)


class TestMonteCarlo:
    def test_estimate_converges(self, db):
        rng = np.random.default_rng(0)
        e = BlockChoice(0, ("100K",)) | BlockChoice(1, ("50K",))
        exact = event_probability(e, db)
        estimate = estimate_event_probability(e, db, 20_000, rng)
        assert estimate == pytest.approx(exact, abs=0.01)

    def test_bad_sample_count(self, db):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            estimate_event_probability(TRUE, db, 0, rng)


class TestHashSeedIndependence:
    def test_disjunction_sums_in_outcome_order(self):
        # One block of 8 tuple-of-string outcomes and the disjunction of 7
        # of its atoms: summing the covered mass in set order gave
        # different bits under different PYTHONHASHSEEDs.
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import numpy as np\n"
            "from repro.probdb import BlockChoice, Distribution,"
            " ProbabilisticDatabase, TupleBlock, disjunction,"
            " event_probability\n"
            "from repro.relational import Schema, make_tuple\n"
            "s = Schema.from_domains({'a': ['x'], 'b': ['b0', 'b1', 'b2', 'b3'],"
            " 'c': ['c0', 'c1']})\n"
            "outs = [(b, c) for b in s['b'].domain for c in s['c'].domain]\n"
            "dist = Distribution(outs, np.random.default_rng(3).random(8))\n"
            "db = ProbabilisticDatabase(s, (),"
            " [TupleBlock(make_tuple(s, {'a': 'x'}), dist)])\n"
            "event = disjunction([BlockChoice(0, o) for o in outs[:7]])\n"
            "print(event_probability(event, db).hex())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        bits = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                check=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            ).stdout.strip()
            for seed in ("0", "2")
        }
        assert len(bits) == 1, bits
