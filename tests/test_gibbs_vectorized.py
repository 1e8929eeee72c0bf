"""The vectorized multi-chain Gibbs kernel: equivalence and determinism.

Three layers of guarantees:

* ``BatchInferenceEngine.conditional_probs_batch`` is bit-identical to the
  scalar ``conditional_probs`` row by row (they share one array memo per
  voting config), through the memo's hits, misses and resets, and its
  ``cumulative=True`` rows are exactly ``Generator.choice``'s CDF.
* A one-tuple, one-chain :class:`~repro.core.gibbs.GibbsEnsemble` consumes
  the same RNG stream as the scalar :class:`~repro.core.gibbs.GibbsChain`
  and emits identical samples under the same seed; multi-chain /
  multi-tuple ensembles draw in a different (equally admissible) order and
  are checked for KL-closeness against the scalar sampler and the exact
  posterior instead.
* Derivations running the vectorized kernel stay bit-identical across
  executors and worker counts — the PR 3 guarantee extends to the new
  kernel because multi-shard batching never depends on the pool size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import DeriveConfig
from repro.api.service import DeriveRequest
from repro.bayesnet import forward_sample_relation, make_network
from repro.bench.masking import mask_relation
from repro.bench.metrics import true_joint_posterior
from repro.cli import build_parser, config_from_args
from repro.core import engine as engine_module
from repro.core import (
    BatchInferenceEngine,
    GibbsSampler,
    derive_probabilistic_database,
    ensemble_sampling,
    learn_mrsl,
    workload_sampling,
)
from repro.core.engine import DEFAULT_CPD_CACHE_SIZE, _cdf_rows
from repro.core.gibbs import _column_draw
from repro.datasets.census import load_census
from repro.exec.base import split_by_segments
from repro.exec import plan as plan_module
from repro.exec.plan import MULTI_TUPLES_PER_SHARD, _component_roots, plan_shards
from repro.relational import Relation, make_tuple
from repro.relational.tuples import MISSING_CODE


@pytest.fixture(scope="module")
def bn8_setup():
    rng = np.random.default_rng(42)
    net = make_network("BN8", rng)
    data = forward_sample_relation(net, 6000, rng)
    model = learn_mrsl(data, support_threshold=0.005).model
    return net, data.schema, model


# -- batched conditional CPDs --------------------------------------------------


class TestConditionalProbsBatch:
    def test_rows_bit_identical_to_scalar(self, bn8_setup):
        net, schema, model = bn8_setup
        engine = BatchInferenceEngine(model)
        rng = np.random.default_rng(0)
        states = rng.integers(0, 2, size=(64, 4)).astype(np.int32)
        for attr in range(4):
            batch = engine.conditional_probs_batch(states, attr)
            assert batch.shape == (64, schema[attr].cardinality)
            for i in range(states.shape[0]):
                scalar = engine.conditional_probs(states[i], attr)
                assert (batch[i] == scalar).all()

    def test_shares_the_scalar_memo_entries(self, bn8_setup):
        net, schema, model = bn8_setup
        engine = BatchInferenceEngine(model)
        states = np.zeros((8, 4), dtype=np.int32)
        engine.conditional_probs(states[0], 1)
        before = engine.cache_info()
        engine.conditional_probs_batch(states, 1)
        # All eight rows share the signature already cached by the scalar
        # call: no new miss, eight hits.
        after = engine.cache_info()
        assert after["misses"] == before["misses"] == 1
        assert after["hits"] == before["hits"] + 8

    def test_empty_batch(self, bn8_setup):
        net, schema, model = bn8_setup
        engine = BatchInferenceEngine(model)
        out = engine.conditional_probs_batch(
            np.empty((0, 4), dtype=np.int32), 0
        )
        assert out.shape == (0, schema[0].cardinality)

    def test_unpackable_signature_space_falls_back(self, bn8_setup):
        """When the packed signature space would overflow int64 the memo
        keys on signature bytes instead, with identical results."""
        net, schema, model = bn8_setup
        engine = BatchInferenceEngine(model)
        rng = np.random.default_rng(3)
        states = rng.integers(0, 2, size=(48, 4)).astype(np.int32)
        # The all-MISSING_CODE signature is all 0xff bytes: the last key.
        states[::6] = MISSING_CODE
        states[3::6, 2] = MISSING_CODE
        packed = engine.conditional_probs_batch(states, 1)
        cdfs = engine.conditional_probs_batch(states, 1, cumulative=True)
        fallback = BatchInferenceEngine(model)
        fallback._sig_packers = dict.fromkeys(range(4))  # force the fallback
        # An empty memo finds nothing; scalar misses then fill it row by row,
        # row 12's all-0xff key arriving after smaller ones.
        empty = fallback.conditional_probs_batch(states[:0], 1)
        assert empty.shape == (0, schema[1].cardinality)
        for i in range(47, 0, -7):
            assert (fallback.conditional_probs(states[i], 1) == packed[i]).all()
        assert (fallback.conditional_probs_batch(states, 1) == packed).all()
        assert (
            fallback.conditional_probs_batch(states, 1, cumulative=True) == cdfs
        ).all()
        # A bound sweep step cannot pack bytes keys: no live memo for it.
        assert fallback.live_memo(1, fallback.v_choice, fallback.v_scheme) is None
        assert fallback.cache_info()["misses"] == engine.cache_info()["misses"]

    def test_counters_track_batches(self, bn8_setup):
        net, schema, model = bn8_setup
        engine = BatchInferenceEngine(model)
        rng = np.random.default_rng(1)
        states = rng.integers(0, 2, size=(32, 4)).astype(np.int32)
        engine.conditional_probs_batch(states, 2)
        assert engine.tuples_served == 32
        assert engine.groups_computed >= 1
        # A repeated batch is served whole by the memo: its rows count as
        # hits, and nothing is computed.
        info = engine.cache_info()
        engine.conditional_probs_batch(states, 2)
        again = engine.cache_info()
        assert again["hits"] == info["hits"] + 32
        assert again["misses"] == info["misses"]
        assert again["groups_computed"] == info["groups_computed"]


# -- the array-native CPD/CDF memo -------------------------------------------------


@pytest.fixture(scope="module")
def census_model():
    rng = np.random.default_rng(2011)
    train, _ = load_census(2500, rng)
    return learn_mrsl(train, support_threshold=0.005).model


@pytest.fixture(params=["dense", "sorted"])
def memo_index(request, monkeypatch):
    """Both sides of the memo's index choice: the default cap, under which
    census signature spaces get a dense index, and a cap of 0, which puts
    every memo on sorted keys."""
    if request.param == "sorted":
        monkeypatch.setattr(engine_module, "DENSE_INDEX_CAP", 0)
    return request.param


def _assert_memo_index(engine, memo_index):
    """Every memo of ``engine`` sits on the ``memo_index`` side."""
    assert engine._memos
    for memo in engine._memos.values():
        assert (memo.index is not None) == (memo_index == "dense")


def _random_states(schema, n, rng):
    """``n`` random full code vectors, column by column within domains."""
    return np.stack(
        [rng.integers(0, attr.cardinality, size=n) for attr in schema], axis=1
    ).astype(np.int32)


def _cdf(probs):
    cdf = np.cumsum(probs)
    return cdf / cdf[-1]


class TestCPDMemo:
    def test_rows_bit_identical_to_scalar_across_calls(self, census_model):
        """Successive batches (new and repeated signatures mixed) on every
        attribute, plain and cumulative, equal the scalar path bit for bit."""
        schema = census_model.schema
        engine = BatchInferenceEngine(census_model)
        scalar = BatchInferenceEngine(census_model)
        rng = np.random.default_rng(5)
        for call in range(4):
            states = _random_states(schema, 40, rng)
            if call:
                states[:15] = previous[-15:]  # memo hits beside misses
            previous = states
            for attr in range(len(schema)):
                probs = engine.conditional_probs_batch(states, attr)
                cdfs = engine.conditional_probs_batch(
                    states, attr, cumulative=True
                )
                for i, row in enumerate(states):
                    expected = scalar.conditional_probs(row, attr)
                    assert (probs[i] == expected).all()
                    assert (cdfs[i] == _cdf(expected)).all()

    def test_cumulative_rows_are_the_choice_cdf(self, census_model):
        schema = census_model.schema
        engine = BatchInferenceEngine(census_model)
        states = _random_states(schema, 64, np.random.default_rng(6))
        for attr in range(len(schema)):
            probs = engine.conditional_probs_batch(states, attr)
            cdfs = engine.conditional_probs_batch(states, attr, cumulative=True)
            for p, c in zip(probs, cdfs):
                assert (c == np.cumsum(p) / np.cumsum(p)[-1]).all()

    def test_reset_by_a_tiny_cache_returns_identical_rows(self, census_model):
        """One bound across all three entry points: scalar, grouped and
        batch calls interleave on a 3-signature engine and answer exactly
        as a large one."""
        schema = census_model.schema
        big = BatchInferenceEngine(census_model)
        tiny = BatchInferenceEngine(census_model, cache_size=3)
        rng = np.random.default_rng(7)

        def check_bound():
            # The bound is on all memos together, not per memo.
            held = [len(memo) for memo in tiny._memos.values()]
            assert sum(held) == tiny._memo_rows <= 3
            assert tiny.cache_info()["size"] == tiny._memo_rows

        for n in (2, 3, 2, 30, 2, 3):  # 30 rows alone outgrow the bound
            states = _random_states(schema, n, rng)
            for attr in range(len(schema)):
                for cumulative in (False, True):
                    a = big.conditional_probs_batch(
                        states, attr, cumulative=cumulative
                    )
                    b = tiny.conditional_probs_batch(
                        states, attr, cumulative=cumulative
                    )
                    assert (a == b).all()
                    check_bound()
                for row in states[:3]:
                    a = big.conditional_probs(row, attr)
                    assert (tiny.conditional_probs(row, attr) == a).all()
                    check_bound()
                single = states.copy()
                single[:, attr] = MISSING_CODE
                ((_, pa, ia, ca),) = big.infer_grouped(single)
                ((gb, pb, ib, cb),) = tiny.infer_grouped(single)
                assert gb == attr and (pa == pb).all()
                assert (ca[ia] == cb[ib]).all()
                check_bound()
        assert tiny.memo_resets > 0
        assert tiny.cache_info()["evictions"] == tiny.memo_resets
        assert big.memo_resets == 0

    def test_cache_size_bounds(self, census_model):
        """``cache_size`` below 1 is refused; 1 resets on every new
        signature yet answers as the default; ``None`` never resets."""
        with pytest.raises(ValueError, match="must be positive"):
            BatchInferenceEngine(census_model, cache_size=0)
        with pytest.raises(ValueError, match="must be positive"):
            GibbsSampler(census_model, cache_size=0)
        schema = census_model.schema
        states = _random_states(schema, 40, np.random.default_rng(12))
        engines = {
            size: BatchInferenceEngine(census_model, cache_size=size)
            for size in (DEFAULT_CPD_CACHE_SIZE, 1, None)
        }
        rows = {}
        for size, engine in engines.items():
            rows[size] = [
                engine.conditional_probs_batch(states, attr, cumulative=True)
                for attr in range(len(schema))
            ] + [engine.conditional_probs(states[5], 2)]
            if size is not None:
                assert engine._memo_rows <= size
        for size in (1, None):
            for a, b in zip(rows[DEFAULT_CPD_CACHE_SIZE], rows[size]):
                assert (a == b).all()
        assert engines[1].memo_resets > 0
        assert engines[1].cache_info()["maxsize"] == 1
        assert engines[None].memo_resets == 0
        assert engines[None].cache_info()["maxsize"] is None

    def test_batch_after_warm_scalar_adds_no_miss(self, census_model):
        schema = census_model.schema
        engine = BatchInferenceEngine(census_model)
        states = _random_states(schema, 50, np.random.default_rng(8))
        for row in states:
            engine.conditional_probs(row, 3)
        misses = engine.cache_info()["misses"]
        computed = engine.groups_computed
        engine.conditional_probs_batch(states, 3)
        engine.conditional_probs_batch(states, 3, cumulative=True)
        assert engine.cache_info()["misses"] == misses
        assert engine.groups_computed == computed

    def test_missing_codes_in_the_signature_stay_distinct(
        self, census_model, memo_index
    ):
        """MISSING_CODE is a digit of the packing, never an alias."""
        schema = census_model.schema
        engine = BatchInferenceEngine(census_model)
        scalar = BatchInferenceEngine(census_model)
        states = _random_states(schema, 60, np.random.default_rng(9))
        states[::2, 1] = -1
        states[::3, 4] = -1
        for attr in (0, 2, 4):
            probs = engine.conditional_probs_batch(states, attr)
            for row, p in zip(states, probs):
                assert (p == scalar.conditional_probs(row, attr)).all()
        _assert_memo_index(engine, memo_index)

    def test_census_multi_missing_derive_digest_is_pinned(
        self, census_model, memo_index
    ):
        """Seeded vectorized derive, byte for byte as before the memo."""
        import hashlib

        rng = np.random.default_rng(2011)
        load_census(2500, rng)  # the training rows of census_model
        rows, _ = load_census(600, rng)
        relation = mask_relation(rows, (2, 3), rng)
        result = derive_probabilistic_database(
            relation,
            config=DeriveConfig(
                num_samples=300, burn_in=20, seed=5, gibbs_chains=2
            ),
            model=census_model,
        )
        h = hashlib.sha256()
        for block in result.database.blocks:
            h.update(block.base.codes.tobytes())
            h.update(repr(tuple(block.distribution.outcomes)).encode())
            h.update(np.asarray(block.distribution.probs).tobytes())
        assert len(result.database.blocks) == 600
        assert h.hexdigest() == (
            "5f2be536acdbff3c8f504ae6886d6d53a4a620a80a89025a955602f6a23972cb"
        )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_column_draw_is_the_choice_search(data):
    """The sweep's column-wise draw skips each CDF row's last column; that
    column is exactly 1.0, so the draw equals ``Generator.choice``'s
    ``side="right"`` search, including at ties and at ``u = 0.0``."""
    card = data.draw(st.integers(2, 12), label="card")
    rows = data.draw(st.integers(1, 6), label="rows")
    cpds = np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.floats(1e-300, 1.0), min_size=card, max_size=card
                ),
                min_size=rows,
                max_size=rows,
            ),
            label="cpds",
        )
    )
    cdfs = _cdf_rows(cpds)
    assert (cdfs[:, -1] == 1.0).all()
    slots = np.array(
        data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=12)),
        dtype=np.intp,
    )
    u = np.empty(slots.size)
    for i, slot in enumerate(slots):
        kind = data.draw(st.sampled_from(["free", "zero", "tie"]))
        if kind == "free":
            u[i] = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        elif kind == "zero":
            u[i] = 0.0
        else:
            tie = cdfs[slot, data.draw(st.integers(0, card - 2))]
            # Generator.random stays below 1.0, which a column may reach
            # early when the later probabilities vanish beside it.
            u[i] = min(tie, np.nextafter(1.0, 0.0))
    expected = (cdfs[slots] <= u[:, None]).sum(axis=1)
    assert (_column_draw(cdfs[:, :-1].T, slots, u) == expected).all()


# -- scalar vs vectorized chains -------------------------------------------------


class TestEnsembleEquivalence:
    def test_single_chain_same_seed_identical_samples(self, bn8_setup):
        """One tuple, one chain: the ensemble replays the scalar stream."""
        net, schema, model = bn8_setup
        t = make_tuple(schema, {"x0": "v1", "x1": "v0"})

        scalar_sampler = GibbsSampler(model, rng=np.random.default_rng(7))
        chain = scalar_sampler.chain(t)
        chain.run_burn_in(25)
        scalar = [chain.step() for _ in range(120)]

        vector_sampler = GibbsSampler(model, rng=np.random.default_rng(7))
        ensemble = vector_sampler.ensemble([t], chains=1)
        (samples,) = ensemble.run(120, burn_in=25)
        assert scalar == [tuple(int(v) for v in row) for row in samples]

    def test_ensemble_sampling_matches_workload_sampling_single_tuple(
        self, bn8_setup
    ):
        """Whole-pipeline single-tuple parity: identical distributions."""
        net, schema, model = bn8_setup
        t = make_tuple(schema, {"x0": "v0", "x1": "v1"})
        vec, _ = ensemble_sampling(
            model, [([t], 11)], num_samples=150, burn_in=20
        )
        scal, _ = workload_sampling(
            model, [t], num_samples=150, burn_in=20, rng=11
        )
        assert vec[0].distribution.outcomes == scal[0].distribution.outcomes
        assert (
            np.asarray(vec[0].distribution.probs)
            == np.asarray(scal[0].distribution.probs)
        ).all()

    def test_multi_tuple_ensemble_kl_close(self, bn8_setup):
        """Ensembles draw differently but estimate the same joints."""
        net, schema, model = bn8_setup
        tuples = [
            make_tuple(schema, {"x0": "v0", "x1": "v1"}),
            make_tuple(schema, {"x0": "v1", "x3": "v0"}),
            make_tuple(schema, {"x2": "v1"}),
        ]
        vec, _ = ensemble_sampling(
            model, [(tuples, 1)], num_samples=3000, burn_in=200, chains=4
        )
        scal, _ = workload_sampling(
            model, tuples, num_samples=3000, burn_in=200, rng=1
        )
        for bv, bs in zip(vec, scal):
            kl = bs.distribution.kl_divergence(bv.distribution)
            assert kl < 0.05, f"vectorized joint drifted: KL={kl}"

    def test_ensemble_tracks_true_posterior(self, bn8_setup):
        """Multi-chain pooling converges on the exact BN posterior."""
        net, schema, model = bn8_setup
        t = make_tuple(schema, {"x0": "v0", "x1": "v1"})
        blocks, _ = ensemble_sampling(
            model, [([t], 2)], num_samples=3000, burn_in=200, chains=4
        )
        true = true_joint_posterior(net, t)
        kl = true.kl_divergence(blocks[0].distribution)
        assert kl < 0.12, f"KL {kl} too large: ensemble not converging"

    def test_duplicates_share_blocks(self, bn8_setup):
        net, schema, model = bn8_setup
        t = make_tuple(schema, {"x0": "v0"})
        blocks, _ = ensemble_sampling(
            model, [([t, t], 0)], num_samples=50, burn_in=5
        )
        assert blocks[0] is blocks[1]

    def test_chains_pool_into_the_sample_budget(self, bn8_setup):
        net, schema, model = bn8_setup
        t = make_tuple(schema, {"x0": "v0"})
        for chains in (1, 3, 4):
            blocks, stats = ensemble_sampling(
                model, [([t], 0)], num_samples=100, burn_in=10, chains=chains
            )
            # ceil(100 / chains) recorded sweeps plus burn-in, per chain.
            sweeps = -(-100 // chains)
            assert stats.total_draws == (10 + sweeps) * chains
            assert stats.burn_in_draws == 10 * chains
            assert stats.shared_tuples == 0
            assert sum(
                1 for _ in blocks[0].distribution.outcomes
            ) == len(blocks[0].distribution)

    def test_ensemble_requires_compiled_engine(self, bn8_setup):
        net, schema, model = bn8_setup
        sampler = GibbsSampler(model, rng=0, engine="naive")
        t = make_tuple(schema, {"x0": "v0"})
        with pytest.raises(ValueError, match="compiled"):
            sampler.ensemble([t])

    def test_ensemble_rejects_bad_inputs(self, bn8_setup):
        net, schema, model = bn8_setup
        sampler = GibbsSampler(model, rng=0)
        t = make_tuple(schema, {"x0": "v0"})
        complete = make_tuple(schema, ["v0"] * 4)
        with pytest.raises(ValueError, match="incomplete"):
            sampler.ensemble([complete])
        with pytest.raises(ValueError, match="distinct"):
            sampler.ensemble([t, t])
        with pytest.raises(ValueError, match="chains"):
            sampler.ensemble([t], chains=0)
        with pytest.raises(ValueError, match="at least one"):
            sampler.ensemble([])

    def test_warm_engine_reuse_is_transparent(self, bn8_setup):
        """A caller's warm engine changes cost, never results."""
        net, schema, model = bn8_setup
        tuples = [
            make_tuple(schema, {"x0": "v0", "x1": "v1"}),
            make_tuple(schema, {"x2": "v0"}),
        ]
        warm = BatchInferenceEngine(model)
        a, _ = ensemble_sampling(
            model, [(tuples, 4)], num_samples=80, burn_in=10, batch_engine=warm
        )
        b, _ = ensemble_sampling(model, [(tuples, 4)], num_samples=80, burn_in=10)
        for ba, bb in zip(a, b):
            assert ba.distribution.outcomes == bb.distribution.outcomes
            assert (
                np.asarray(ba.distribution.probs)
                == np.asarray(bb.distribution.probs)
            ).all()

    def test_unpackable_signature_space_ensemble(self, bn8_setup):
        """With every signature space forced unpackable the engine's memos
        key on bytes and the sweep steps stay on the per-call route: the
        blocks equal the packed run's."""
        net, schema, model = bn8_setup
        tuples = [
            make_tuple(schema, {"x0": "v0", "x1": "v1"}),
            make_tuple(schema, {"x0": "v1", "x3": "v0"}),
            make_tuple(schema, {"x2": "v1"}),
            make_tuple(schema, {"x1": "v0"}),
        ]
        blocks = {}
        for packable in (True, False):
            engine = BatchInferenceEngine(model)
            if not packable:
                engine._sig_packers = dict.fromkeys(range(len(schema)))
            blocks[packable], _ = ensemble_sampling(
                model, [(tuples, 9)], num_samples=120, burn_in=10, chains=2,
                batch_engine=engine,
            )
            assert engine._memos
            assert all(
                (m.mult is not None) == packable for m in engine._memos.values()
            )
        for ba, bb in zip(blocks[True], blocks[False]):
            assert ba.base == bb.base
            assert ba.distribution.outcomes == bb.distribution.outcomes
            assert (
                np.asarray(ba.distribution.probs)
                == np.asarray(bb.distribution.probs)
            ).all()

    def test_warm_engine_must_wrap_the_same_model(self, bn8_setup):
        net, schema, model = bn8_setup
        rng = np.random.default_rng(0)
        other = learn_mrsl(
            forward_sample_relation(net, 500, rng), support_threshold=0.01
        ).model
        with pytest.raises(ValueError, match="different model"):
            GibbsSampler(model, batch_engine=BatchInferenceEngine(other))


# -- planner batching -------------------------------------------------------------


class TestMultiShardBatching:
    def _multi_workload(self, fig1_relation):
        return [
            t for t in fig1_relation.incomplete_part() if t.num_missing > 1
        ]

    def test_components_pack_into_batches(self, fig1_relation):
        """Several subsumption components, one segment: the ensemble
        shares nothing across tuples, so components only order the cut."""
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        multi = self._multi_workload(fig1_relation)
        codes = np.unique(np.stack([t.codes for t in multi]), axis=0)
        assert np.unique(_component_roots(codes)).size > 1
        plan = plan_shards(multi, model, seed=3)
        (shard,) = plan.multi_shards
        assert len(shard.segments) == 1
        assert len(shard) == len(multi)

    def test_batching_is_worker_count_independent(
        self, fig1_relation, monkeypatch
    ):
        monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", 2)
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        multi = self._multi_workload(fig1_relation)
        plans = [
            plan_shards(multi, model, workers=w, seed=5) for w in (1, 2, 8)
        ]
        # Segments are the seed unit: their keys and seeds never follow the
        # worker count (how they fuse into shards may).
        keyed = [
            [(g.key, g.seed) for s in p.multi_shards for g in s.segments]
            for p in plans
        ]
        assert len(keyed[0]) > 1
        assert keyed[0] == keyed[1] == keyed[2]

    def test_oversized_component_is_split(self, fig1_schema, monkeypatch):
        """Components bigger than the batch target split: the ensemble
        shares nothing across tuples, so splitting costs nothing and keeps
        shard sizes (hence worker load) bounded."""
        monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", 2)
        # <20,?,?,?> subsumes the other two: one 3-tuple component.
        tuples = [
            make_tuple(fig1_schema, {"age": "20", "edu": "HS"}),
            make_tuple(fig1_schema, {"age": "20", "edu": "BS"}),
            make_tuple(fig1_schema, {"age": "20"}),
        ]
        model = learn_mrsl(
            Relation(fig1_schema, []), support_threshold=0.99
        ).model
        plan = plan_shards(tuples, model, seed=0)
        assert [
            g.distinct for s in plan.multi_shards for g in s.segments
        ] == [2, 1]
        assert sorted(
            i for s in plan.multi_shards for i in s.indices
        ) == [0, 1, 2]

    def test_duplicates_stay_in_one_shard(self, fig1_schema, monkeypatch):
        """Duplicate workload entries share a segment (hence a block) even
        when re-batching splits their component."""
        monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", 2)
        a = make_tuple(fig1_schema, {"age": "20", "edu": "HS"})
        b = make_tuple(fig1_schema, {"age": "20", "edu": "BS"})
        c = make_tuple(fig1_schema, {"age": "20"})
        model = learn_mrsl(
            Relation(fig1_schema, []), support_threshold=0.99
        ).model
        plan = plan_shards([a, b, c, a], model, seed=0)
        # Shards hold distinct tuples: both copies of ``a`` are one tuple of
        # one segment, which covers both workload rows.
        holding = []
        for shard in plan.multi_shards:
            for tuples, segment in zip(
                split_by_segments(shard.tuples, shard.segments), shard.segments
            ):
                count = sum(1 for t in tuples if t == a)
                assert count in (0, 1)
                assert segment.size == segment.distinct + count
                if count:
                    holding.append(segment)
        assert len(holding) == 1
        assert sum(len(s) for s in plan.multi_shards) == plan.num_tuples == 4

    def test_derive_plans_batched_multi_shards(self, fig1_relation):
        result = derive_probabilistic_database(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=40, burn_in=5),
            rng=3,
        )
        multis = [
            t for t in result.exec_report.timings if t.kind == "multi"
        ]
        assert len(multis) == 1
        assert multis[0].tuples == len(self._multi_workload(fig1_relation))
        assert MULTI_TUPLES_PER_SHARD >= multis[0].groups


# -- executor / worker-count determinism for the new kernel -----------------------


def _assert_identical(a, b):
    assert len(a.blocks) == len(b.blocks)
    for ba, bb in zip(a.blocks, b.blocks):
        assert ba.base == bb.base
        assert ba.distribution.outcomes == bb.distribution.outcomes
        assert (
            np.asarray(ba.distribution.probs)
            == np.asarray(bb.distribution.probs)
        ).all()


class TestVectorizedDeterminism:
    CFG = dict(support_threshold=0.1, num_samples=60, burn_in=10, seed=17)

    def test_bit_identical_across_executors_and_workers(self, fig1_relation):
        base = DeriveConfig(gibbs_chains=3, **self.CFG)
        baseline = derive_probabilistic_database(fig1_relation, config=base)
        for executor, workers in (
            ("serial", 1),
            ("process", 2),
        ):
            cfg = base.replacing(executor=executor, workers=workers)
            run = derive_probabilistic_database(fig1_relation, config=cfg)
            _assert_identical(baseline.database, run.database)

    def test_vectorized_and_scalar_disagree_on_samples(self, fig1_relation):
        """The ensemble and the scalar tuple-DAG sampler are different
        admissible samplers, not one sampler: same segment, same seed,
        different samples."""
        result = derive_probabilistic_database(
            fig1_relation, config=DeriveConfig(**self.CFG)
        )
        (shard,) = plan_shards(
            [t for t in fig1_relation.incomplete_part() if t.num_missing > 1],
            result.model,
            seed=self.CFG["seed"],
        ).multi_shards
        (segment,) = shard.segments
        scal, _ = workload_sampling(
            result.model, list(shard.tuples),
            num_samples=self.CFG["num_samples"], burn_in=self.CFG["burn_in"],
            rng=np.random.default_rng(segment.seed),
        )
        vec = [b for b in result.database.blocks if b.base.num_missing > 1]
        assert [b.base for b in vec] == [b.base for b in scal]
        same = all(
            ba.distribution.outcomes == bb.distribution.outcomes
            and (
                np.asarray(ba.distribution.probs)
                == np.asarray(bb.distribution.probs)
            ).all()
            for ba, bb in zip(vec, scal)
        )
        assert not same

    def test_naive_engine_runs_the_same_multi_kernel(self, fig1_relation):
        """``engine`` selects the Algorithm 2 kernel only: under the naive
        engine multi-missing blocks are the compiled ensemble's, byte for
        byte, whatever the chain count."""
        for chains in (1, 5):
            cfg = DeriveConfig(gibbs_chains=chains, **self.CFG)
            compiled = derive_probabilistic_database(fig1_relation, config=cfg)
            naive = derive_probabilistic_database(
                fig1_relation, config=cfg.replacing(engine="naive")
            )
            _assert_identical(compiled.database, naive.database)

    def test_ablation_strategies_stay_scalar(self, bn8_setup):
        """The ablation strategies live on as scalar library code:
        ``tuple_at_a_time`` is one :class:`GibbsChain` per distinct tuple,
        drawn in turn from one generator."""
        net, schema, model = bn8_setup
        tuples = [
            make_tuple(schema, {"x0": "v0", "x1": "v1"}),
            make_tuple(schema, {"x0": "v0"}),
            make_tuple(schema, {"x0": "v0", "x1": "v1"}),
        ]
        blocks, stats = workload_sampling(
            model, tuples, num_samples=60, burn_in=10,
            strategy="tuple_at_a_time", rng=17,
        )
        sampler = GibbsSampler(model, rng=17)
        expected = [sampler.estimate(t, 60, 10) for t in tuples[:2]]
        for got, want in zip(blocks, [*expected, expected[0]]):
            assert got.base == want.base
            assert got.distribution.outcomes == want.distribution.outcomes
            assert (
                np.asarray(got.distribution.probs)
                == np.asarray(want.distribution.probs)
            ).all()
        assert stats.total_draws == 2 * (10 + 60)


# -- knob plumbing -----------------------------------------------------------------


class TestKnobPlumbing:
    def test_config_validates_gibbs_chains(self):
        with pytest.raises(ValueError, match="gibbs_chains"):
            DeriveConfig(gibbs_chains=0)

    def test_config_rejects_string_gibbs_vectorized(self):
        """The kernel switch is gone: every spelling of it is refused."""
        for bad in ("off", "on", "false", 0, False):
            with pytest.raises(TypeError, match="gibbs_vectorized"):
                DeriveConfig(gibbs_vectorized=bad)

    def test_derive_request_rejects_string_gibbs_vectorized(self, fig1_relation):
        from repro.api.service import InferenceService, ServiceError

        schema = {a.name: list(a.domain) for a in fig1_relation.schema}
        service = InferenceService()
        with pytest.raises(ServiceError, match="gibbs_vectorized"):
            service.handle_json(
                "derive",
                {"rows": [["20", "HS", "?", "?"]], "schema": schema,
                 "config": {"gibbs_vectorized": "off"}},
            )

    def test_config_round_trips_the_knobs(self):
        cfg = DeriveConfig(gibbs_chains=4)
        again = DeriveConfig.from_dict(cfg.to_dict())
        assert again.gibbs_chains == 4
        assert "gibbs_vectorized" not in cfg.to_dict()

    def test_cli_flags_reach_the_config(self):
        args = build_parser().parse_args(
            ["derive", "data.csv", "--gibbs-chains", "4"]
        )
        cfg = config_from_args(args)
        assert cfg.gibbs_chains == 4

    def test_cli_defaults_match_config_defaults(self):
        args = build_parser().parse_args(["derive", "data.csv"])
        cfg = config_from_args(args)
        assert cfg.gibbs_chains == DeriveConfig().gibbs_chains

    def test_derive_request_round_trips_the_knobs(self):
        req = DeriveRequest(
            rows=(("a", "?"),),
            config={"gibbs_chains": 2},
        )
        again = DeriveRequest.from_dict(req.to_dict())
        assert again == req
        assert DeriveRequest.from_dict({"rows": []}).config is None

    def test_session_derive_accepts_the_knobs(self, fig1_relation):
        from repro.api.session import Session

        session = Session(
            DeriveConfig(support_threshold=0.1, num_samples=40, burn_in=5,
                         seed=9)
        )
        a = session.derive(
            fig1_relation, config=session.config.replacing(gibbs_chains=2)
        )
        b = session.derive(
            fig1_relation, config={"gibbs_chains": 2}
        )
        _assert_identical(a.database, b.database)
        with pytest.raises(ValueError, match="unknown config keys"):
            session.derive(fig1_relation, config={"gibbs_vectorized": False})
