"""The batched Algorithm 2 kernel, ``CompiledMRSL.infer_many``.

Every row of a batch must equal the naive path
(:func:`~repro.core.inference.infer_single_codes`) bit for bit, for all
``vChoice`` x ``vScheme`` combinations, on the Fig. 1 model, census, and a
model of the Table I ``BN7`` network; and on the edge cases the batch
arithmetic handles specially (empty voter sets, ROOT without a root rule,
an empty lattice, a one-row batch, missing evidence), whatever the chunking.
The shape index's three key spaces (dense, sorted int64, ``np.void`` rows
past ``2**63``) must each agree with ``MRSL.matching`` and
``best_matching``, and a Hypothesis property checks voter sets and CPDs on
random lattices that need not be downward-closed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesnet import forward_sample_relation, make_network
from repro.bench.masking import mask_relation
from repro.core import BatchInferenceEngine, CompiledModel, CompiledMRSL, learn_mrsl
from repro.core import compiled as compiled_module
from repro.core.inference import (
    VoterChoice,
    VotingScheme,
    infer_single_codes,
    select_voters,
)
from repro.core.metarule import MetaRule
from repro.core.mrsl import MRSL
from repro.datasets.census import load_census
from repro.relational import MISSING_CODE, Relation, RelTuple, Schema
from tests.conftest import FIG1_ROWS

ALL_COMBOS = [(vc, vs) for vc in VoterChoice for vs in VotingScheme]


def _distinct_reps(tuples, compiled):
    """attr -> (representative tuples, their code matrix), one per signature."""
    out: dict[int, dict[bytes, RelTuple]] = {}
    for t in tuples:
        attr = t.missing_positions[0]
        out.setdefault(attr, {}).setdefault(compiled[attr].signature(t.codes), t)
    return {
        attr: (list(reps.values()), np.stack([t.codes for t in reps.values()]))
        for attr, reps in out.items()
    }


def _assert_batch_matches_naive(model, tuples, v_choice, v_scheme):
    compiled = CompiledModel(model)
    for attr, (reps, codes) in _distinct_reps(tuples, compiled).items():
        got = compiled[attr].infer_many(codes, v_choice, v_scheme)
        assert got.shape == (len(reps), model.schema[attr].cardinality)
        for t, row in zip(reps, got):
            want = infer_single_codes(t, model[attr], v_choice, v_scheme)
            assert (row == want).all(), (
                f"infer_many differs for {t!r} under "
                f"{v_choice.value}/{v_scheme.value}"
            )


@pytest.fixture(scope="module")
def fig1_setup():
    relation = Relation.from_rows(_fig1_schema(), FIG1_ROWS)
    model = learn_mrsl(relation, support_threshold=0.1).model
    # Every single-missing variant of every Fig. 1 point.
    tuples = []
    for t in relation.complete_part():
        for attr in range(len(model.schema)):
            codes = t.codes.copy()
            codes[attr] = MISSING_CODE
            tuples.append(RelTuple(model.schema, codes))
    return model, tuples


def _fig1_schema():
    return Schema.from_domains(
        {
            "age": ["20", "30", "40"],
            "edu": ["HS", "BS", "MS"],
            "inc": ["50K", "100K"],
            "nw": ["100K", "500K"],
        }
    )


@pytest.fixture(scope="module")
def census_setup():
    rng = np.random.default_rng(7)
    relation, _ = load_census(2500, rng)
    model = learn_mrsl(relation, support_threshold=0.005).model
    test, _ = load_census(400, rng)
    return model, list(mask_relation(test, 1, rng))


@pytest.fixture(scope="module")
def bn7_setup():
    """The ``bn7-single`` benchmark's model and seed-1 rows."""
    train_rng = np.random.default_rng(2011)
    net = make_network("BN7", train_rng)
    train = forward_sample_relation(net, 20_000, train_rng)
    model = learn_mrsl(train, support_threshold=0.005).model
    rng = np.random.default_rng(1)
    rows = forward_sample_relation(net, 20_000, rng)
    return model, list(mask_relation(rows, 1, rng))


class TestMatchesNaive:
    @pytest.mark.parametrize("v_choice,v_scheme", ALL_COMBOS)
    def test_fig1(self, fig1_setup, v_choice, v_scheme):
        model, tuples = fig1_setup
        _assert_batch_matches_naive(model, tuples, v_choice, v_scheme)

    @pytest.mark.parametrize("v_choice,v_scheme", ALL_COMBOS)
    def test_census(self, census_setup, v_choice, v_scheme):
        model, tuples = census_setup
        _assert_batch_matches_naive(model, tuples, v_choice, v_scheme)

    @pytest.mark.parametrize("v_choice,v_scheme", ALL_COMBOS)
    def test_bn7(self, bn7_setup, v_choice, v_scheme):
        model, tuples = bn7_setup
        _assert_batch_matches_naive(model, tuples[:600], v_choice, v_scheme)

    def test_bn7_groups_computed_counts_distinct_signatures(self, bn7_setup):
        model, tuples = bn7_setup
        engine = BatchInferenceEngine(model)
        engine.infer_batch_codes(tuples)
        assert engine.groups_computed == 11_269
        engine.infer_batch_codes(tuples)  # all cached now
        assert engine.groups_computed == 11_269


class TestChunking:
    @pytest.mark.parametrize("budget", [1, 4096])
    @pytest.mark.parametrize("v_choice,v_scheme", ALL_COMBOS)
    def test_chunked_rows_identical(
        self, census_setup, monkeypatch, budget, v_choice, v_scheme
    ):
        model, tuples = census_setup
        compiled = CompiledModel(model)
        for attr, (_, codes) in _distinct_reps(tuples, compiled).items():
            whole = compiled[attr].infer_many(codes, v_choice, v_scheme)
            fresh = CompiledMRSL(model[attr], model.schema[attr].cardinality)
            with monkeypatch.context() as m:
                m.setattr(compiled_module, "MATCH_CHUNK_BYTES", budget)
                assert fresh._chunk_rows() < max(len(codes), 2)
                chunked = fresh.infer_many(codes, v_choice, v_scheme)
            assert chunked.tobytes() == whole.tobytes()

    def test_shape_index_independent_of_chunking(self, census_setup, monkeypatch):
        model, tuples = census_setup
        attr = 4
        whole = CompiledMRSL(model[attr], model.schema[attr].cardinality)
        monkeypatch.setattr(compiled_module, "MATCH_CHUNK_BYTES", 1)
        chunked = CompiledMRSL(model[attr], model.schema[attr].cardinality)
        assert chunked._chunk_rows() == 1
        assert whole.shapes == chunked.shapes
        for name in _SHAPE_INDEX:
            a, b = getattr(whole, name), getattr(chunked, name)
            assert (a is None and b is None) or (a == b).all(), name
        codes = np.stack([t.codes for t in tuples])
        assert (whole._rule_ids(codes) == chunked._rule_ids(codes)).all()


#: The arrays a lattice's shape index consists of (``None`` when unused).
_SHAPE_INDEX = (
    "_shape_attrs",
    "_key_mult",
    "_key_cap",
    "_key_base",
    "_key_pad",
    "_key_index",
    "_keys",
    "_key_rules",
    "_supers",
    "_sub_starts",
    "_dominable",
)


def _schema():
    return Schema.from_domains({"a": ["x", "y"], "b": ["u", "v", "w"], "h": [0, 1, 2]})


def _rule(body, probs, weight=0.5):
    return MetaRule(2, body, weight, np.asarray(probs, dtype=np.float64))


class TestEdgeCases:
    def _check(self, lattice, rows):
        schema = _schema()
        compiled = CompiledMRSL(lattice, 3)
        codes = np.array(rows, dtype=np.int32).reshape(-1, 3)
        for v_choice, v_scheme in ALL_COMBOS:
            got = compiled.infer_many(codes, v_choice, v_scheme)
            for row, out in zip(codes, got):
                want = infer_single_codes(
                    RelTuple(schema, row), lattice, v_choice, v_scheme
                )
                assert (out == want).all(), (row, v_choice, v_scheme)
        return compiled

    def test_no_matching_rule_falls_back_to_uniform(self):
        lattice = MRSL(2, [_rule(((0, 0),), [0.2, 0.3, 0.5])])
        compiled = self._check(lattice, [[1, 0, -1], [0, 0, -1]])
        probs = compiled.infer_many(
            np.array([[1, 0, -1]], dtype=np.int32),
            VoterChoice.BEST,
            VotingScheme.AVERAGED,
        )
        assert (probs == 1.0 / 3).all()

    def test_root_without_root_rule(self):
        lattice = MRSL(2, [_rule(((0, 0),), [0.2, 0.3, 0.5])])
        compiled = self._check(lattice, [[0, 1, -1], [1, 2, -1]])
        probs = compiled.infer_many(
            np.array([[0, 1, -1]], dtype=np.int32),
            VoterChoice.ROOT,
            VotingScheme.LOG_POOL,
        )
        assert (probs == 1.0 / 3).all()

    def test_empty_lattice(self):
        rows = [[0, 1, -1], [-1, -1, -1]]
        compiled = self._check(MRSL(2, []), rows)
        assert compiled.shapes == ()
        assert compiled._supers.size == 0
        codes = np.array(rows, dtype=np.int32)
        assert compiled._rule_ids(codes).shape == (2, 0)
        for v_choice in VoterChoice:
            for row in codes:
                assert compiled.voter_rows(row, v_choice).tolist() == []

    def test_root_only_lattice(self):
        rows = [[0, 1, -1], [-1, -1, -1], [1, 2, -1]]
        lattice = MRSL(2, [_rule((), [0.6, 0.3, 0.1], 1.0)])
        compiled = self._check(lattice, rows)
        assert compiled.shapes == ((),)
        assert compiled._supers.size == 0
        codes = np.array(rows, dtype=np.int32)
        assert compiled._rule_ids(codes).tolist() == [[0], [0], [0]]
        for v_choice in VoterChoice:
            for row in codes:
                assert compiled.voter_rows(row, v_choice).tolist() == [0]

    def test_one_row_batch_equals_scalar_infer(self):
        lattice = MRSL(
            2,
            [
                _rule((), [0.6, 0.3, 0.1], 1.0),
                _rule(((0, 1),), [0.2, 0.3, 0.5]),
                _rule(((0, 1), (1, 2)), [0.1, 0.1, 0.8], 0.2),
            ],
        )
        compiled = self._check(lattice, [[1, 2, -1]])
        row = np.array([1, 2, -1], dtype=np.int32)
        for v_choice, v_scheme in ALL_COMBOS:
            batch = compiled.infer_many(row[None, :], v_choice, v_scheme)
            assert batch.shape == (1, 3)
            assert (batch[0] == compiled.infer(row, v_choice, v_scheme)).all()

    def test_missing_evidence_outside_the_head(self):
        lattice = MRSL(
            2,
            [
                _rule((), [0.6, 0.3, 0.1], 1.0),
                _rule(((0, 0),), [0.2, 0.3, 0.5]),
                _rule(((1, 1),), [0.3, 0.3, 0.4]),
                _rule(((0, 0), (1, 1)), [0.1, 0.1, 0.8], 0.2),
            ],
        )
        # A missing non-head code matches only bodies that skip it.
        self._check(lattice, [[-1, 1, -1], [0, -1, -1], [-1, -1, -1], [0, 1, -1]])

    def test_head_column_is_never_read(self):
        lattice = MRSL(2, [_rule((), [0.6, 0.3, 0.1], 1.0), _rule(((0, 0),), [0.2, 0.3, 0.5])])
        compiled = CompiledMRSL(lattice, 3)
        codes = np.array([[0, 1, -1], [0, 1, 2]], dtype=np.int32)
        for v_choice, v_scheme in ALL_COMBOS:
            got = compiled.infer_many(codes, v_choice, v_scheme)
            assert (got[0] == got[1]).all()


# -- key spaces: dense, sorted int64, and void keys ---------------------------------

_WIDE_HEAD = 4
_INT32_MAX = 2**31 - 1


def _wide_lattice(x, y):
    """Bodies over attributes 0..3 using values ``x[a]`` and ``y[a]`` only;
    shapes (0, 3), (1, 3) and (0, 1, 2) are absent, so the lattice is not
    downward-closed."""
    bodies = [
        (),
        ((0, x[0]),),
        ((2, x[2]),),
        ((0, x[0]), (1, x[1])),
        ((0, y[0]), (1, x[1])),
        ((0, x[0]), (1, x[1]), (3, x[3])),
        ((1, y[1]), (2, x[2]), (3, y[3])),
        ((0, x[0]), (2, x[2]), (3, x[3])),
        ((0, x[0]), (1, x[1]), (2, x[2]), (3, x[3])),
    ]
    rules = [
        MetaRule(_WIDE_HEAD, body, 0.1 + 0.1 * i, np.array([0.2, 0.3, 0.5]))
        for i, body in enumerate(bodies)
    ]
    return MRSL(_WIDE_HEAD, rules)


class TestKeySpaces:
    """Each key-space branch of the shape index against ``MRSL.matching``.

    Rows take every combination of the two used values, a missing code, 0
    and ``2**31 - 1`` (both used by no body) on attributes 0..3.
    """

    @pytest.mark.parametrize(
        "base,branch",
        [(1, "dense"), (1000, "sorted"), (2**30, "void")],
    )
    def test_branch_matches_naive(self, base, branch):
        x = [base + a for a in range(4)]
        y = [base + 10 + a for a in range(4)]
        lattice = _wide_lattice(x, y)
        compiled = CompiledMRSL(lattice, 3)
        kinds = {
            "dense": compiled._key_index is not None,
            "sorted": compiled._keys is not None and compiled._key_pad is None,
            "void": compiled._key_pad is not None,
        }
        assert [k for k, on in kinds.items() if on] == [branch]

        schema = Schema.from_domains({f"a{i}": [0, 1] for i in range(5)})
        choices = [[x[a], y[a], MISSING_CODE, 0, _INT32_MAX] for a in range(4)]
        grid = np.stack(np.meshgrid(*choices, indexing="ij"), axis=-1).reshape(-1, 4)
        codes = np.column_stack([grid, np.full(len(grid), MISSING_CODE)]).astype(
            np.int32
        )
        naive = {
            VoterChoice.ALL: lattice.matching,
            VoterChoice.BEST: lattice.best_matching,
        }
        for row in codes:
            row.setflags(write=False)
            missing = tuple(int(a) for a in np.flatnonzero(row == MISSING_CODE))
            t = RelTuple._trusted(schema, row, missing)
            for v_choice, select in naive.items():
                got = [compiled.bodies[r] for r in compiled.voter_rows(row, v_choice)]
                assert got == [m.body for m in select(t)], (row, v_choice)
        for v_choice, v_scheme in ALL_COMBOS:
            got = compiled.infer_many(codes, v_choice, v_scheme)
            for row, out in zip(codes, got):
                missing = tuple(int(a) for a in np.flatnonzero(row == MISSING_CODE))
                t = RelTuple._trusted(schema, row, missing)
                want = infer_single_codes(t, lattice, v_choice, v_scheme)
                assert (out == want).all(), (row, v_choice, v_scheme)


# -- property test over random lattices ------------------------------------------

# Attributes 0..5 are evidence, 6 is the head.  Bodies use values below
# each evidence attribute's top code, so evidence holding the top code
# holds a value no body uses.
_CARDS = (2, 3, 2, 4, 3, 3, 4)
_HEAD = 6


@st.composite
def _lattices(draw):
    bodies = draw(
        st.sets(
            st.lists(
                st.tuples(st.integers(0, _HEAD - 1), st.integers(0, 3)),
                max_size=4,
                unique_by=lambda item: item[0],
            ).map(
                lambda items: tuple(
                    sorted((a, v % (_CARDS[a] - 1)) for a, v in items)
                )
            ),
            max_size=20,
        )
    )
    rules = []
    for body in sorted(bodies):
        raw = draw(
            st.lists(
                st.floats(0.01, 1.0), min_size=_CARDS[_HEAD], max_size=_CARDS[_HEAD]
            )
        )
        probs = np.asarray(raw) / sum(raw)
        probs = probs / probs.sum()
        weight = draw(st.floats(0.01, 1.0))
        try:
            rules.append(MetaRule(_HEAD, body, weight, probs))
        except ValueError:  # renormalization drift outside the 1e-9 check
            continue
    return MRSL(_HEAD, rules)


_evidence = st.lists(
    st.tuples(*(st.integers(-1, c - 1) for c in _CARDS[:_HEAD])),
    min_size=1,
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(lattice=_lattices(), evidence=_evidence)
def test_random_lattices_match_naive(lattice, evidence):
    schema = Schema.from_domains({f"a{i}": list(range(c)) for i, c in enumerate(_CARDS)})
    codes = np.array([list(e) + [MISSING_CODE] for e in evidence], dtype=np.int32)
    compiled = CompiledMRSL(lattice, _CARDS[_HEAD])
    tuples = [RelTuple(schema, row) for row in codes]
    for v_choice in VoterChoice:
        for row, t in zip(codes, tuples):
            got = [compiled.bodies[r] for r in compiled.voter_rows(row, v_choice)]
            want = [m.body for m in select_voters(lattice, t, v_choice)]
            assert got == want, (row, v_choice)
    for v_choice, v_scheme in ALL_COMBOS:
        got = compiled.infer_many(codes, v_choice, v_scheme)
        for t, out in zip(tuples, got):
            want = infer_single_codes(t, lattice, v_choice, v_scheme)
            assert (out == want).all()
