"""The columnar single-missing path: planner, kernel and distribution builders.

Algorithm 2's planner (``build_single_shards``) and compiled kernel
(``single_shard_blocks``) run on stacked code matrices and build their
distributions and blocks through trusted constructors after one check per
matrix.  These tests pin them to the references they must reproduce byte
for byte — the naive kernel, and an in-test copy of the dict-of-lists
grouping and greedy packing the planner replaced — and check that the
public constructors' checks still fire and that no path, pickling
included, hands out writeable probabilities.
"""

import hashlib
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.config import DeriveConfig
from repro.core.derive import derive_probabilistic_database
from repro.core.engine import BatchInferenceEngine, unique_rows
from repro.core.inference import infer_single_codes
from repro.core.learning import learn_mrsl
from repro.exec import execute_derivation
from repro.exec.plan import Workload, plan_shards
from repro.exec.runtime import execute_delta
from repro.exec.work import ShardKnobs, single_shard_blocks
from repro.jobs import JobStore
from repro.probdb import Distribution
from repro.probdb.blocks import TupleBlock
from repro.probdb.distribution import normalize_rows
from repro.probdb.invalidate import CarryStore
from repro.relational import Relation, RelTuple, Schema
from repro.relational.schema import SchemaError
from repro.relational.tuples import MISSING_CODE

KNOBS = ShardKnobs(
    v_choice="best",
    v_scheme="averaged",
    engine="compiled",
    num_samples=20,
    burn_in=2,
)
NAIVE = ShardKnobs(**{**KNOBS.__dict__, "engine": "naive"})


# -- the reference planner ------------------------------------------------------


def _reference_single_shards(entries, compiled, workers):
    """The dict grouping and greedy packing the columnar planner replaced.

    Returns ``(key, indices, tuples, groups)`` per shard, in shard order.
    """
    grouped = {}
    for idx, t in entries:
        attr = t.missing_positions[0]
        key = (attr, compiled[attr].signature(t.codes))
        grouped.setdefault(key, []).append((idx, t))
    groups = sorted(grouped.items(), key=lambda item: item[0])
    if not groups:
        return []
    num_bins = min(len(groups), workers)
    bins = [[] for _ in range(num_bins)]
    bin_groups = [0] * num_bins
    order = sorted(
        range(len(groups)), key=lambda i: (-len(groups[i][1]), groups[i][0])
    )
    for gi in order:
        target = min(range(num_bins), key=lambda b: (len(bins[b]), b))
        bins[target].extend(groups[gi][1])
        bin_groups[target] += 1
    shards = []
    for b, members in enumerate(bins):
        members.sort(key=lambda e: e[0])
        h = hashlib.sha256()
        for codes in sorted(t.codes.tobytes() for _, t in members):
            h.update(codes)
        shards.append(
            (
                f"single:{b:03d}:{h.hexdigest()[:16]}",
                tuple(idx for idx, _ in members),
                tuple(t for _, t in members),
                bin_groups[b],
            )
        )
    return shards


def _shard_rows(shards):
    return [(s.key, s.indices, s.tuples, s.groups, len(s)) for s in shards]


def _distinct_rows(reference, workload):
    """The reference's per-entry shards as the planner holds them: each
    distinct row once (its first entry, numbered by ``workload``), plus the
    entry count."""
    rows = workload.rows.tolist()
    out = []
    for key, indices, tuples, groups in reference:
        first = {}
        for idx, t in zip(indices, tuples):
            first.setdefault(rows[idx], t)
        out.append(
            (key, tuple(first), tuple(first.values()), groups, len(indices))
        )
    return out


def _same_rows(got, want):
    assert [row[0] for row in got] == [row[0] for row in want]
    for (key, indices, tuples, groups, size), (
        _, w_indices, w_tuples, w_groups, w_size
    ) in zip(got, want):
        assert indices == w_indices, key
        assert groups == w_groups, key
        assert size == w_size, key
        assert len(tuples) == len(w_tuples), key
        assert all(a is b for a, b in zip(tuples, w_tuples)), key


# -- workloads --------------------------------------------------------------------


def _relation(cards, rows):
    schema = Schema.from_domains(
        {f"a{i}": [f"v{j}" for j in range(c)] for i, c in enumerate(cards)}
    )
    return Relation.from_codes(schema, np.asarray(rows, dtype=np.int32))


@st.composite
def single_workloads(draw):
    """A learned model plus a single-missing workload over its schema.

    High support thresholds leave attributes with only the empty-body
    meta-rule (an empty signature) or no meta-rule at all (the uniform
    fallback); rows are drawn from a small pool, so duplicates are common.
    """
    cards = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    complete = st.tuples(*(st.integers(0, c - 1) for c in cards))
    train = _relation(cards, draw(st.lists(complete, min_size=4, max_size=40)))
    support = draw(st.sampled_from([0.05, 0.2, 0.45, 0.9]))
    model = learn_mrsl(train, support_threshold=support).model
    pool = draw(st.lists(complete, min_size=1, max_size=8))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.integers(0, len(cards) - 1)),
            min_size=1,
            max_size=30,
        )
    )
    tuples = []
    for row, attr in picks:
        codes = list(pool[row])
        codes[attr] = MISSING_CODE
        tuples.append(RelTuple(train.schema, codes))
    return model, tuples


def _edge_workload():
    """A fixed workload with both degenerate lattices.

    At support 0.6, ``a0`` (constant) keeps only its empty-body meta-rule,
    so its signature is empty, while no value of ``a1`` (uniform over 6)
    or ``a2`` (balanced) is frequent, so they have no meta-rules.
    """
    rows = [(0, i % 6, (i // 6) % 2) for i in range(24)]
    train = _relation([2, 6, 2], rows)
    model = learn_mrsl(train, support_threshold=0.6).model
    compiled = model.compiled
    assert len(model[0]) == 1 and compiled[0].signature_attrs.size == 0
    assert len(model[1]) == 0 and len(model[2]) == 0
    tuples = [
        RelTuple(train.schema, codes)
        for codes in (
            [-1, 1, 0], [-1, 2, 1], [0, -1, 1], [0, -1, 1], [1, 3, -1],
            [0, 3, -1], [-1, 1, 0],
        )
    ]
    return model, tuples


def _assert_kernel_matches_naive(model, tuples):
    got = single_shard_blocks(tuples, model, KNOBS)
    want = single_shard_blocks(tuples, model, NAIVE)
    assert len(got) == len(want) == len(tuples)
    for t, g, w in zip(tuples, got, want):
        assert g.base is t
        assert g.distribution.outcomes == w.distribution.outcomes
        assert g.distribution.probs.tobytes() == w.distribution.probs.tobytes()
        assert not g.distribution.probs.flags.writeable


def _assert_planner_matches_reference(model, tuples):
    compiled = model.compiled
    entries = list(enumerate(tuples))
    workload = Workload.from_tuples(tuples)
    for workers in (1, 2, 3):
        plan = plan_shards(tuples, model, workers=workers)
        _same_rows(
            _shard_rows(plan.shards),
            _distinct_rows(
                _reference_single_shards(entries, compiled, workers), workload
            ),
        )


def _assert_signatures_share_distributions(model, tuples):
    compiled = model.compiled
    engine = BatchInferenceEngine(model)
    for shard in plan_shards(tuples, model, workers=2).shards:
        blocks = single_shard_blocks(shard.tuples, model, KNOBS, engine)
        by_key = {}
        for t, block in zip(shard.tuples, blocks):
            attr = t.missing_positions[0]
            key = (attr, compiled[attr].signature(t.codes))
            assert by_key.setdefault(key, block.distribution) is block.distribution
        assert len({id(d) for d in by_key.values()}) == len(by_key) == shard.groups


def _assert_delta_planner_matches_reference(model, tuples):
    """Dirty and carried singles of ``execute_delta`` pack like the reference."""
    compiled = model.compiled
    previous = single_shard_blocks(tuples, model, KNOBS)
    carry = CarryStore(
        singles={t: b for t, b in zip(tuples[::2], previous[::2])},
        multi={},
        base_seed=None,
    )
    split = carry.split(tuples)
    workload = split.workload
    # The split holds distinct rows; the reference packs workload entries.
    rows = workload.rows.tolist()
    dirty = set(split.dirty_single)
    dirty_entries = [(i, t) for i, t in enumerate(tuples) if rows[i] in dirty]
    carried_ids = set(split.carried_single)
    carried_entries = [
        (i, t) for i, t in enumerate(tuples) if rows[i] in carried_ids
    ]
    assert len(dirty_entries) + len(carried_entries) == len(tuples)
    plans = []
    config = DeriveConfig(num_samples=20, burn_in=2, seed=0)
    outcome = execute_delta(tuples, model, config, carry, on_plan=plans.append)
    _same_rows(
        _shard_rows(plans[0].shards),
        _distinct_rows(
            _reference_single_shards(dirty_entries, compiled, config.workers),
            workload,
        ),
    )
    carried = [
        (t.key, t.tuples, t.groups)
        for t in outcome.report.timings
        if t.carried
    ]
    reference = _reference_single_shards(carried_entries, compiled, config.workers)
    assert carried == [(key, len(ts), groups) for key, _, ts, groups in reference]
    for got, want in zip(outcome.blocks, previous):
        assert got.distribution.probs.tobytes() == want.distribution.probs.tobytes()


PROPERTIES = (
    _assert_kernel_matches_naive,
    _assert_planner_matches_reference,
    _assert_signatures_share_distributions,
    _assert_delta_planner_matches_reference,
)


class TestColumnarProperties:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(single_workloads())
    def test_random_workloads(self, workload):
        model, tuples = workload
        for check in PROPERTIES:
            check(model, tuples)

    @pytest.mark.parametrize("check", PROPERTIES, ids=lambda f: f.__name__[8:])
    def test_degenerate_lattices(self, check):
        check(*_edge_workload())

    @pytest.mark.parametrize("check", PROPERTIES, ids=lambda f: f.__name__[8:])
    def test_one_row_batch(self, check):
        model, tuples = _edge_workload()
        check(model, tuples[2:3])


class TestUniqueRows:
    def test_numbers_rows_in_sorted_bytes_order(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(-1, 300, size=(500, 3)).astype(np.int32)
        first, inverse = unique_rows(matrix)
        distinct = sorted({row.tobytes() for row in matrix})
        assert [matrix[i].tobytes() for i in first] == distinct
        assert [distinct[k] for k in inverse] == [row.tobytes() for row in matrix]
        assert all(inverse[i] == k for k, i in enumerate(first))
        assert (first == [inverse.tolist().index(k) for k in range(first.size)]).all()

    def test_zero_width_is_one_group(self):
        first, inverse = unique_rows(np.zeros((4, 0), dtype=np.int32))
        assert first.tolist() == [0] and inverse.tolist() == [0, 0, 0, 0]


# -- the stacked distribution builder -----------------------------------------------


class TestStackedDistributions:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("card", [3, 9, 200])
    def test_stack_equals_per_row_construction(self, card, order):
        rng = np.random.default_rng(card)
        scale = rng.choice([1e-8, 1.0, 1e5], size=(50, 1))
        matrix = np.asarray(rng.random((50, card)) * scale, order=order)
        outcomes = [f"v{i}" for i in range(card)]
        stacked = Distribution.stack(outcomes, matrix)
        for row, d in zip(matrix, stacked):
            want = Distribution(outcomes, row)
            assert d.outcomes == want.outcomes
            assert d.probs.tobytes() == want.probs.tobytes()
            assert not d.probs.flags.writeable
            assert d["v2"] == want["v2"]
        assert all(d.outcomes is stacked[0].outcomes for d in stacked)

    @pytest.mark.parametrize(
        "matrix,message",
        [
            ([[0.5, 0.5], [0.5, -0.1]], "negative probability"),
            ([[0.5, 0.5], [0.0, 0.0]], "probabilities sum to zero"),
            ([[0.0, 0.0], [0.5, -0.1]], "probabilities sum to zero"),
        ],
    )
    def test_first_failing_row_raises_its_error(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            normalize_rows(np.array(matrix))
        with pytest.raises(ValueError, match=message):
            Distribution.stack(["a", "b"], np.array(matrix))

    def test_stack_checks_outcomes(self):
        with pytest.raises(ValueError, match="duplicate"):
            Distribution.stack(["a", "a"], np.ones((1, 2)))
        with pytest.raises(ValueError, match="outcomes but"):
            Distribution.stack(["a", "b"], np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least one"):
            Distribution.stack([], np.ones((1, 0)))

    def test_infer_batch_is_byte_equal_to_the_public_constructor(self):
        model, tuples = _edge_workload()
        dists = BatchInferenceEngine(model).infer_batch(tuples)
        for t, d in zip(tuples, dists):
            attr = t.missing_positions[0]
            probs = infer_single_codes(t, model[attr])
            want = Distribution(model.schema[attr].domain, probs)
            assert d.outcomes == want.outcomes
            assert d.probs.tobytes() == want.probs.tobytes()
            assert not d.probs.flags.writeable
        assert dists[0] is dists[-1]  # one signature, one distribution


# -- checks that must still fire ------------------------------------------------------


class TestChecksStillFire:
    def test_public_constructors_reject_bad_input(self, fig1_relation):
        with pytest.raises(ValueError, match="negative probability"):
            Distribution(["a", "b"], [0.5, -0.5])
        with pytest.raises(ValueError, match="sum to zero"):
            Distribution(["a", "b"], [0.0, 0.0])
        with pytest.raises(ValueError, match="duplicate"):
            Distribution(["a", "a"], [0.5, 0.5])
        complete = next(iter(fig1_relation.complete_part()))
        with pytest.raises(SchemaError, match="incomplete base"):
            TupleBlock(complete, Distribution([("20",)], [1.0]))
        single = next(t for t in fig1_relation if t.num_missing == 1)
        with pytest.raises(SchemaError, match="outside"):
            TupleBlock(single, Distribution([("nope",)], [1.0]))

    @pytest.mark.parametrize(
        "row,message",
        [([-0.1, 1.1], "negative probability"), ([0.0, 0.0], "probabilities sum to zero")],
    )
    def test_kernel_rejects_bad_cpd_rows(self, monkeypatch, row, message):
        model, tuples = _edge_workload()
        tuples = [t for t in tuples if t.missing_positions == (0,)]
        engine = BatchInferenceEngine(model)

        def bad_answer(reps, attr, choice, scheme):
            return np.tile(np.array(row), (reps.shape[0], 1))

        monkeypatch.setattr(engine, "_answer", bad_answer)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                single_shard_blocks(tuples, model, KNOBS, engine)

    def test_kernel_rejects_multi_missing(self, fig1_relation):
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        multi = [t for t in fig1_relation if t.num_missing > 1]
        with pytest.raises(ValueError, match="exactly one missing"):
            single_shard_blocks(multi, model, KNOBS)

    @pytest.mark.parametrize("engine", ["compiled", "naive"])
    def test_derived_blocks_are_read_only(self, fig1_relation, engine):
        result = derive_probabilistic_database(
            fig1_relation,
            config=DeriveConfig(
                support_threshold=0.1, num_samples=30, burn_in=5, seed=0,
                engine=engine,
            ),
        )
        blocks = result.database.blocks
        assert blocks
        for block in blocks:
            probs = block.distribution.probs
            assert not probs.flags.writeable
            with pytest.raises(ValueError):
                probs[0] = 5.0


# -- pickling keeps distributions immutable -----------------------------------------------


class TestPicklingKeepsProbsReadOnly:
    def test_round_trip(self):
        d = Distribution(["a", "b", "c"], [0.1, 0.2, 0.7])
        e = pickle.loads(pickle.dumps(d))
        assert not e.probs.flags.writeable
        assert e.probs.tobytes() == d.probs.tobytes()
        assert e.outcomes == d.outcomes and e["c"] == d["c"]
        with pytest.raises(ValueError):
            e.probs[0] = 5.0

    def test_round_trip_keeps_stacked_sharing(self):
        dists = Distribution.stack(["a", "b"], np.array([[1.0, 3.0], [2.0, 2.0]]))
        back = pickle.loads(pickle.dumps(dists))
        assert back[0].outcomes is back[1].outcomes
        for d, e in zip(dists, back):
            assert e.probs.tobytes() == d.probs.tobytes()
            assert not e.probs.flags.writeable

    def test_process_derive_blocks(self, fig1_relation):
        config = DeriveConfig(
            support_threshold=0.1, num_samples=30, burn_in=5, seed=0,
            executor="process", workers=2,
        )
        result = derive_probabilistic_database(fig1_relation, config=config)
        serial = derive_probabilistic_database(
            fig1_relation, config=config.replacing(executor="serial", workers=1)
        )
        kinds = set()
        for block, want in zip(result.database.blocks, serial.database.blocks):
            kinds.add(block.base.num_missing == 1)
            assert not block.distribution.probs.flags.writeable
            assert block.distribution.probs.tobytes() == want.distribution.probs.tobytes()
        assert kinds == {True, False}  # single and multi blocks both shipped

    def test_journal_loaded_carry_blocks(self, fig1_relation, tmp_path):
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        config = DeriveConfig(support_threshold=0.1, num_samples=30, burn_in=5, seed=0)
        store = JobStore(tmp_path / "state")
        try:
            store.create_job("j", "derive", "derive", {})

            def on_shard(result):
                for key, kind, blocks in result.records():
                    store.record_shard("j", key, kind, blocks)

            outcome = execute_derivation(
                list(fig1_relation.incomplete_part()), model, config,
                on_plan=lambda plan: store.record_plan("j", plan.base_seed),
                on_shard=on_shard,
            )
            carry = store.load_carry("j")
        finally:
            store.close()
        loaded = list(carry.singles.values()) + [
            b for segment in carry.multi.values() for b in segment.blocks
        ]
        assert len(loaded) == len(outcome.blocks)
        want = {b.base: b.distribution.probs.tobytes() for b in outcome.blocks}
        for block in loaded:
            assert not block.distribution.probs.flags.writeable
            assert block.distribution.probs.tobytes() == want[block.base]
