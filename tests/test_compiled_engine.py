"""Equivalence and regression tests for the compiled batch-inference engine.

The compiled engine must reproduce the naive Algorithm 2 path *bit for bit*
for every ``vChoice`` x ``vScheme`` combination, on BN-generated census data
and on the rule-based cars data, including pruned models — the naive path
stays in the tree as the correctness oracle.
"""

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.core import (
    BatchInferenceEngine,
    CompiledModel,
    CompiledMRSL,
    GibbsSampler,
    LRUCache,
    MetaRule,
    MRSL,
    MRSLModel,
    derive_probabilistic_database,
    learn_mrsl,
    single_missing_blocks,
    validate_engine,
)
from repro.core.inference import (
    VoterChoice,
    VotingScheme,
    _combine,
    infer_all_single_missing,
    infer_single_codes,
    select_voters,
)
from repro.bench.masking import mask_relation
from repro.datasets.cars import load_cars
from repro.datasets.census import load_census
from repro.probdb.engine import QueryEngine
from repro.relational import MISSING_CODE, Relation, Schema, make_tuple

ALL_COMBOS = [
    (vc, vs) for vc in VoterChoice for vs in VotingScheme
]


@pytest.fixture(scope="module")
def census_setup():
    rng = np.random.default_rng(7)
    relation, _ = load_census(2500, rng)
    model = learn_mrsl(relation, support_threshold=0.005).model
    test, _ = load_census(300, rng)
    masked = list(mask_relation(test, 1, rng))
    return model, masked


@pytest.fixture(scope="module")
def cars_setup():
    rng = np.random.default_rng(11)
    relation = load_cars(2500, rng)
    model = learn_mrsl(relation, support_threshold=0.01).model
    test = load_cars(300, rng)
    masked = list(mask_relation(test, 1, rng))
    return model, masked


def _assert_bit_identical(model, masked, v_choice, v_scheme):
    engine = BatchInferenceEngine(model, v_choice, v_scheme)
    compiled = engine.infer_batch_codes(masked)
    for t, got in zip(masked, compiled):
        want = infer_single_codes(
            t, model[t.missing_positions[0]], v_choice, v_scheme
        )
        assert got.shape == want.shape
        assert (got == want).all(), (
            f"compiled CPD differs for {t!r} under "
            f"{v_choice.value}/{v_scheme.value}"
        )


class TestEquivalence:
    @pytest.mark.parametrize("v_choice,v_scheme", ALL_COMBOS)
    def test_census_bit_for_bit(self, census_setup, v_choice, v_scheme):
        model, masked = census_setup
        _assert_bit_identical(model, masked, v_choice, v_scheme)

    @pytest.mark.parametrize("v_choice,v_scheme", ALL_COMBOS)
    def test_cars_bit_for_bit(self, cars_setup, v_choice, v_scheme):
        model, masked = cars_setup
        _assert_bit_identical(model, masked, v_choice, v_scheme)

    @pytest.mark.parametrize("min_weight", [0.02, 0.1, 0.5])
    def test_pruned_models_bit_for_bit(self, census_setup, min_weight):
        model, masked = census_setup
        pruned = model.pruned(min_weight)
        for v_choice, v_scheme in ALL_COMBOS:
            _assert_bit_identical(pruned, masked, v_choice, v_scheme)

    def test_voter_rows_match_naive_selection(self, census_setup):
        """The compiled voter set is the naive one, in enumeration order."""
        model, masked = census_setup
        compiled = CompiledModel(model)
        for t in masked[:50]:
            attr = t.missing_positions[0]
            lat = compiled[attr]
            for v_choice in VoterChoice:
                naive = select_voters(model[attr], t, v_choice)
                rows = lat.voter_rows(t.codes, v_choice)
                assert [lat.bodies[r] for r in rows] == [m.body for m in naive]

    def test_infer_all_single_missing_engines_agree(self, census_setup):
        model, masked = census_setup
        naive = infer_all_single_missing(masked, model, engine="naive")
        compiled = infer_all_single_missing(masked, model, engine="compiled")
        for a, b in zip(naive, compiled):
            assert a.outcomes == b.outcomes
            assert (a.probs == b.probs).all()

    def test_derive_engines_agree(self):
        """Full derivation (singles + Gibbs) matches across engines."""
        rng = np.random.default_rng(3)
        relation, _ = load_census(600, rng)
        codes = relation.codes.copy()
        codes[:80, 4] = MISSING_CODE  # single-missing blocks
        codes[80:90, 3] = MISSING_CODE  # double-missing blocks (Gibbs)
        codes[80:90, 4] = MISSING_CODE
        masked = Relation.from_codes(relation.schema, codes)
        # ``engine`` selects the Algorithm 2 kernel only: multi-missing
        # blocks run the compiled Gibbs ensemble under either engine.
        config = DeriveConfig(
            support_threshold=0.01, num_samples=50, burn_in=10,
        )
        naive = derive_probabilistic_database(
            masked, config=config.replacing(engine="naive"), rng=5
        )
        compiled = derive_probabilistic_database(
            masked, config=config.replacing(engine="compiled"), rng=5
        )
        assert len(naive.database.blocks) == len(compiled.database.blocks)
        for nb, cb in zip(naive.database.blocks, compiled.database.blocks):
            assert nb.base == cb.base
            assert nb.distribution.outcomes == cb.distribution.outcomes
            # Singles: the engines' CPDs agree bit for bit.  Multis: one
            # kernel under one seed.
            assert (nb.distribution.probs == cb.distribution.probs).all()

    def test_gibbs_engines_identical_chains(self, census_setup):
        model, _ = census_setup
        t = make_tuple(
            model.schema, {"age": "26-40", "education": "BS"}
        )
        naive = GibbsSampler(model, rng=9, engine="naive")
        compiled = GibbsSampler(model, rng=9, engine="compiled")
        n_chain = naive.chain(t)
        c_chain = compiled.chain(t)
        for _ in range(25):
            assert n_chain.step() == c_chain.step()


def _zero_prob_meta_rule(head, body, weight, probs):
    """A hand-built meta-rule with exact-zero entries.

    The constructor enforces strict positivity (learned CPDs are smoothed),
    so the zero-probability voter of the regression scenario is produced by
    overwriting ``probs`` afterwards — exactly what ad-hoc user code can do.
    """
    card = len(probs)
    rule = MetaRule(head, body, weight, np.full(card, 1.0 / card))
    rule.probs = np.asarray(probs, dtype=np.float64)
    return rule


class TestLogPoolZeroProbability:
    """Regression: LOG_POOL must stay finite with a zero-probability voter."""

    def _zero_voter_lattice(self):
        schema = Schema.from_domains(
            {"a": ["x", "y"], "b": ["u", "v", "w"]}
        )
        point_mass = _zero_prob_meta_rule(
            1, ((0, 0),), 0.5, [1.0, 0.0, 0.0]
        )
        broad = MetaRule(1, (), 1.0, np.array([0.2, 0.3, 0.5]))
        return schema, MRSL(1, [broad, point_mass])

    def test_naive_log_pool_finite_and_normalized(self):
        schema, lattice = self._zero_voter_lattice()
        t = make_tuple(schema, {"a": "x"})
        probs = infer_single_codes(
            t, lattice, VoterChoice.ALL, VotingScheme.LOG_POOL
        )
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()

    def test_compiled_log_pool_matches_naive(self):
        schema, lattice = self._zero_voter_lattice()
        compiled = CompiledMRSL(lattice, schema[1].cardinality)
        t = make_tuple(schema, {"a": "x"})
        want = infer_single_codes(
            t, lattice, VoterChoice.ALL, VotingScheme.LOG_POOL
        )
        got = compiled.infer(t.codes, VoterChoice.ALL, VotingScheme.LOG_POOL)
        assert (got == want).all()

    def test_combine_emits_no_warning(self):
        point = _zero_prob_meta_rule(1, (), 1.0, [1.0, 0.0])
        with np.errstate(divide="raise", invalid="raise"):
            probs = _combine([point], 2, VotingScheme.LOG_POOL)
        assert np.isfinite(probs).all()

    def test_gibbs_with_zero_probability_voter(self):
        """The crash path: NaN CPDs used to kill rng.choice inside sweeps."""
        schema, lattice = self._zero_voter_lattice()
        root_a = MetaRule(0, (), 1.0, np.array([0.6, 0.4]))
        point_a = _zero_prob_meta_rule(0, ((1, 0),), 0.4, [0.0, 1.0])
        model = MRSLModel(schema, [MRSL(0, [root_a, point_a]), lattice])
        sampler = GibbsSampler(
            model, v_choice="all", v_scheme="log_pool", rng=0
        )
        t = make_tuple(schema, {})
        chain = sampler.chain(t)
        for _ in range(20):
            chain.sweep()  # must not raise


class TestMissingCodeSentinel:
    def test_assigned_head_rejected_via_constant(self, census_setup):
        model, masked = census_setup
        complete = None
        for t in masked:
            attr = t.missing_positions[0]
            complete = t.complete_with(
                {model.schema[attr].name: model.schema[attr].domain[0]}
            )
            with pytest.raises(ValueError, match="already assigns"):
                infer_single_codes(complete, model[attr])
            break

    def test_no_stray_sentinel_literals_in_inference(self):
        import inspect

        from repro.core import inference

        source = inspect.getsource(inference)
        assert "!= -1" not in source and "== -1" not in source


class TestLRUCache:
    def test_eviction_order_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        info = cache.info()
        assert info["hits"] == 3
        assert info["misses"] == 1
        assert info["evictions"] == 1
        assert info["size"] == 2

    def test_unbounded_mode(self):
        cache = LRUCache(None)
        for i in range(1000):
            cache.put(i, i)
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_gibbs_cache_is_bounded(self, census_setup):
        model, _ = census_setup
        sampler = GibbsSampler(model, rng=0, cache_size=4)
        t = make_tuple(model.schema, {"age": "26-40"})
        chain = sampler.chain(t)
        for _ in range(30):
            chain.sweep()
        info = sampler.cache_info()
        assert 0 < info["size"] <= 4
        assert info["maxsize"] == 4
        assert sampler.cpd_evaluations == info["misses"]
        assert sampler.cache_hits == info["hits"]
        assert info["hits"] + info["misses"] > 0

    def test_bounded_cache_does_not_change_results(self, census_setup):
        model, _ = census_setup
        t = make_tuple(model.schema, {"age": "26-40", "sector": "tech"})
        big = GibbsSampler(model, rng=2, cache_size=None)
        small = GibbsSampler(model, rng=2, cache_size=2)
        b_chain, s_chain = big.chain(t), small.chain(t)
        for _ in range(20):
            assert b_chain.step() == s_chain.step()


class TestEngineSelection:
    def test_validate_engine(self):
        assert validate_engine("naive") == "naive"
        assert validate_engine("compiled") == "compiled"
        with pytest.raises(ValueError, match="engine must be one of"):
            validate_engine("turbo")

    def test_sampler_rejects_unknown_engine(self, census_setup):
        model, _ = census_setup
        with pytest.raises(ValueError, match="engine"):
            GibbsSampler(model, engine="turbo")

    def test_infer_all_rejects_unknown_engine(self, census_setup):
        model, masked = census_setup
        with pytest.raises(ValueError, match="engine"):
            infer_all_single_missing(masked, model, engine="turbo")

    def test_single_missing_blocks_engines_agree(self, census_setup):
        model, masked = census_setup
        config = DeriveConfig(v_choice="best", v_scheme="weighted")
        naive = single_missing_blocks(
            masked, model, engine="naive", config=config
        )
        compiled = single_missing_blocks(
            masked, model, engine="compiled", config=config
        )
        for nb, cb in zip(naive, compiled):
            assert nb.base == cb.base
            assert (nb.distribution.probs == cb.distribution.probs).all()

    def test_query_engine_from_relation(self):
        rng = np.random.default_rng(13)
        relation, _ = load_census(400, rng)
        codes = relation.codes.copy()
        codes[:40, 4] = MISSING_CODE
        incomplete = Relation.from_codes(relation.schema, codes)
        qe = QueryEngine.from_relation(
            incomplete,
            config=DeriveConfig(engine="compiled", support_threshold=0.01),
            rng=0,
        )
        assert qe.derive_result is not None
        assert len(qe.db.blocks) == 40
        rows = qe.selection_query(lambda r: r.value("wealth") == "high")
        assert all(0.0 < r.probability <= 1.0 for r in rows)


class TestBatchEngineMechanics:
    def test_cache_reuse_across_batches(self, census_setup):
        model, masked = census_setup
        engine = BatchInferenceEngine(model)
        engine.infer_batch_codes(masked)
        computed = engine.groups_computed
        engine.infer_batch_codes(masked)  # identical batch: all cached
        assert engine.groups_computed == computed
        assert engine.cache_info()["hits"] > 0

    def test_signature_grouping_shares_work(self, census_setup):
        model, masked = census_setup
        engine = BatchInferenceEngine(model)
        engine.infer_batch_codes(masked)
        assert engine.groups_computed < len(masked)
        assert engine.tuples_served == len(masked)

    def test_multi_missing_rejected(self, census_setup):
        model, _ = census_setup
        t = make_tuple(model.schema, {"age": "26-40"})
        engine = BatchInferenceEngine(model)
        with pytest.raises(ValueError, match="exactly one missing"):
            engine.infer_batch_codes([t])

    def test_conditional_probs_matches_naive(self, census_setup):
        model, masked = census_setup
        engine = BatchInferenceEngine(model, "best", "averaged")
        for t in masked[:20]:
            attr = t.missing_positions[0]
            want = infer_single_codes(t, model[attr], "best", "averaged")
            got = engine.conditional_probs(t.codes, attr)
            assert (got == want).all()

    def test_empty_lattice_uniform_fallback(self):
        schema = Schema.from_domains({"a": ["x", "y"], "b": ["u", "v"]})
        compiled = CompiledMRSL(MRSL(1, []), 2)
        t = make_tuple(schema, {"a": "x"})
        probs = compiled.infer(t.codes, VoterChoice.ALL, VotingScheme.AVERAGED)
        assert (probs == 0.5).all()


# -- compiling from stacked body items ------------------------------------------


def _reference_compile(lattice, cardinality):
    """The per-rule construction :class:`CompiledMRSL` replaced: a Python
    sort on ``(body_size, body)``, comprehension-built body index and
    signature columns, and body items chained from the sorted bodies."""
    from itertools import chain

    ref = CompiledMRSL.__new__(CompiledMRSL)
    ref.head_attribute = lattice.head_attribute
    ref.cardinality = cardinality
    rules = sorted(lattice, key=lambda m: (m.body_size, m.body))
    n = len(rules)
    ref.bodies = tuple(m.body for m in rules)
    ref._body_index = {body: i for i, body in enumerate(ref.bodies)}
    if n:
        ref.cpds = np.concatenate([m.probs for m in rules]).reshape(n, -1)
    else:
        ref.cpds = np.empty((0, cardinality), dtype=np.float64)
    ref.weights = np.array([m.weight for m in rules], dtype=np.float64)
    ref.body_sizes = np.fromiter(map(len, ref.bodies), dtype=np.int32, count=n)
    ref.root_index = ref._body_index.get((), -1)
    ref._sum_tables = {}
    ref._digest = None
    attrs = sorted({attr for body in ref.bodies for attr, _ in body})
    ref.signature_attrs = np.array(attrs, dtype=np.intp)
    width = int(ref.body_sizes.max(initial=0))
    sizes = ref.body_sizes
    total = int(sizes.sum())
    items = np.fromiter(
        chain.from_iterable(chain.from_iterable(ref.bodies)),
        dtype=np.int64,
        count=2 * total,
    )
    rule = np.repeat(np.arange(n), sizes)
    slot = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rule_attrs = np.full((n, width), -1, dtype=np.int64)
    rule_vals = np.zeros((n, width), dtype=np.int64)
    rule_attrs[rule, slot] = items[0::2]
    rule_vals[rule, slot] = items[1::2]
    ref._build_shape_index(rule_attrs, rule_vals)
    return ref


def _assert_same_compiled(got, want):
    for name in CompiledMRSL.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), name
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert type(a) is type(b), name
            assert a == b, name
    # Bodies are tuples of plain (attribute, value) int pairs either way.
    assert all(x is y for x, y in zip(got.bodies, want.bodies))


class TestCompileFromArrays:
    """The lexsorted construction equals the per-rule one, array for array."""

    @pytest.fixture(scope="class")
    def bn7_model(self):
        from repro.bayesnet import forward_sample_relation, make_network

        rng = np.random.default_rng(2011)
        net = make_network("BN7", rng)
        train = forward_sample_relation(net, 4000, rng)
        return learn_mrsl(train, support_threshold=0.005).model

    def _check(self, model):
        compiled = CompiledModel(model)
        for attr in range(len(model.schema)):
            card = model.schema[attr].cardinality
            _assert_same_compiled(compiled[attr], _reference_compile(model[attr], card))

    def test_bn7_model(self, bn7_model):
        self._check(bn7_model)

    def test_census_model(self, census_setup):
        model, _ = census_setup
        self._check(model)

    def test_census_model_at_high_support(self):
        """A sparse lattice (few, short bodies; some heads root-only)."""
        relation, _ = load_census(500, np.random.default_rng(3))
        self._check(learn_mrsl(relation, support_threshold=0.3).model)

    def test_empty_and_root_only_lattices(self, census_setup):
        model, _ = census_setup
        root = model[0].root
        for lattice in (MRSL(0, []), MRSL(0, [root])):
            card = model.schema[0].cardinality
            _assert_same_compiled(
                CompiledMRSL(lattice, card), _reference_compile(lattice, card)
            )
