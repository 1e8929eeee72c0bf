"""Rank-fused Gibbs sweeps and batched histograms.

A fused rank step draws, in step ``j``, every row's ``j``-th missing
attribute from one concatenated CDF table; an engine-route step runs
through the engine instead (one ``conditional_probs_batch`` call per
attribute it draws), filling the misses without redrawing earlier steps.
The guarantees:

* Fused and engine-route steps draw the same samples and leave the same
  engine counters, memo inserts and resets, for any chain count, segment
  mix, missing depth, cache bound and engine warmth.
* A run takes one route from its first miss to its end.  The ensemble's
  first miss fills the CPD closure where it fits, and the run stays
  fused; where the closure declines, was decided by an earlier run, or
  no dense memos are live, every later step runs through the engine.
  Both give the same samples.
* Blocks are histogrammed per missing pattern, byte-equal to the
  historical per-tuple counting loop, dense and sparse.
* The rank-state layout (rows deepest first, uniforms gathered into rank
  order, blocks counted from the trace) replays each segment's
  per-call reference loop for any depth mix, chain count, segment count
  and engine, and its blocks equal ``samples_to_distributions`` over
  ``run()``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import BatchInferenceEngine, GibbsSampler, ensemble_sampling
from repro.core import engine as engine_module
from repro.core import gibbs as gibbs_module
from repro.core.engine import DEFAULT_CPD_CACHE_SIZE
from repro.core.gibbs import (
    GibbsEnsemble,
    samples_to_distribution,
    samples_to_distributions,
)
from repro.core.learning import learn_mrsl
from repro.datasets.census import load_census
from repro.probdb.distribution import DEFAULT_SMOOTHING_FLOOR
from repro.relational import Schema
from repro.relational.tuples import MISSING_CODE, RelTuple
from tests.test_fused_ensemble import _reference_segment
from tests.test_gibbs import _reference_samples_to_distribution

#: Missing-position patterns of depth 1 to 4 over census's 5 attributes,
#: so rank steps cover different row sets and every rank mixes
#: attributes of different cardinalities.
PATTERNS = [(2,), (0, 1), (3, 4), (1, 2, 3), (0, 1, 3, 4)]


@pytest.fixture(scope="module")
def census():
    """Census model and one pool of distinct tuples per pattern."""
    rng = np.random.default_rng(23)
    train, _ = load_census(250, rng)
    test, _ = load_census(60, rng)
    model = learn_mrsl(train, support_threshold=0.02).model
    pools = []
    for pattern in PATTERNS:
        pool = []
        for t in test:
            codes = t.codes.copy()
            codes[list(pattern)] = MISSING_CODE
            pool.append(RelTuple(t.schema, codes))
        pools.append(list(dict.fromkeys(pool)))
    return model, pools


def _segments(pools):
    """Three seeded segments, each mixing missing depths."""
    mixed = [t for i in range(6) for pool in pools for t in pool[i : i + 1]]
    return [(mixed[:7], 101), (mixed[7:19], 202), (mixed[19:], 303)]


def _run(
    model, segments, chains, cache_size, warm=None, engine_route=False,
    per_step=False, samples=60, burn_in=8,
):
    """Samples and ``(cache_info, memo_resets, steps)`` of one ensemble run,
    plus the number of engine-route rank steps and whether the CPD closure
    was filled.  ``per_step`` runs with the closure declined, so every
    step from the run's first miss on runs through the engine."""
    engine = BatchInferenceEngine(model, cache_size=cache_size)
    if warm:
        ensemble_sampling(
            model, [(warm, 5)], num_samples=12, burn_in=2, batch_engine=engine
        )
    if engine_route:
        engine.live_memo = lambda attr, choice, scheme: None
    sampler = GibbsSampler(model, rng=0, batch_engine=engine)
    ensemble = GibbsEnsemble(sampler, segments, chains=chains)
    engine_steps = {"steps": 0}
    engine_step = ensemble._engine_step

    def counted(j, uniforms):
        engine_step(j, uniforms)
        engine_steps["steps"] += 1

    ensemble._engine_step = counted
    if per_step:
        ensemble._closure = False
    drawn = ensemble.run(samples, burn_in=burn_in)
    counters = (engine.cache_info(), engine.memo_resets, sampler.steps)
    engine_steps["closure"] = ensemble._closure
    return drawn, counters, engine_steps


def _assert_same_samples(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        assert (x == y).all()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("cache_size", [DEFAULT_CPD_CACHE_SIZE, 40, 3])
@pytest.mark.parametrize("chains", [1, 3])
def test_fused_sweeps_equal_per_call_sweeps(census, chains, cache_size, warm):
    model, pools = census
    segments = _segments(pools)
    warm_tuples = [t for pool in pools for t in pool[20:26]] if warm else None
    fused, counters, engine_steps = _run(
        model, segments, chains, cache_size, warm_tuples
    )
    routed, routed_counters, _ = _run(
        model, segments, chains, cache_size, warm_tuples, engine_route=True
    )
    per_step, _, per_step_engine = _run(
        model, segments, chains, cache_size, warm_tuples, per_step=True
    )
    _assert_same_samples(fused, routed)
    _assert_same_samples(fused, per_step)
    assert counters == routed_counters
    steps = (8 + -(-60 // chains)) * 4
    if cache_size == DEFAULT_CPD_CACHE_SIZE:
        # The first miss filled the closure: no step missed after it.
        assert engine_steps["closure"] is True
        assert engine_steps["steps"] == 0
        # The run's very first step misses, so with the closure declined
        # it and every later step run through the engine.
        assert per_step_engine["steps"] == steps
    else:
        # The closure outgrows the bound: the rest of the run after the
        # first miss goes through the engine.
        assert engine_steps["closure"] is False
        assert engine_steps["steps"] > 0
        assert counters[1] > 0  # memo resets mid-run


@pytest.mark.parametrize("chains", [1, 3])
def test_fused_sweeps_replay_the_reference_loop(census, chains):
    """Each segment's samples equal the independent per-call reference
    loop's: the rank order reads every row's own uniforms."""
    model, pools = census
    segments = _segments(pools)
    engine = BatchInferenceEngine(model)
    ensemble_sampling(
        model, [([t for pool in pools for t in pool], 5)], num_samples=30,
        burn_in=2, batch_engine=engine,
    )
    sampler = GibbsSampler(model, rng=0, batch_engine=engine)
    fused = GibbsEnsemble(sampler, segments, chains=chains).run(60, burn_in=8)
    reference = [
        arr
        for bases, seed in segments
        for arr in _reference_segment(model, bases, seed, chains, 60, 8)
    ]
    assert len(fused) == len(reference)
    for f, r in zip(fused, reference):
        assert (f == r).all()


def test_warm_engine_sweeps_never_call_the_engine(census, monkeypatch):
    model, pools = census
    segments = _segments(pools)
    engine = BatchInferenceEngine(model)
    sampler = GibbsSampler(model, rng=0, batch_engine=engine)
    first = GibbsEnsemble(sampler, segments).run(60, burn_in=8)
    calls = []
    batch = engine.conditional_probs_batch
    monkeypatch.setattr(
        engine, "conditional_probs_batch",
        lambda *a, **k: calls.append(a[1]) or batch(*a, **k),
    )
    monkeypatch.setattr(
        engine, "fill", lambda *a, **k: calls.append("fill")
    )
    again = GibbsEnsemble(sampler, segments).run(60, burn_in=8)
    _assert_same_samples(first, again)
    assert calls == []


def test_the_first_miss_fills_the_closure_once(census, monkeypatch):
    """The first miss fills every step attribute's closure in one
    ``fill`` call: the run never misses again, computes no signature a
    per-step run computes more of, and a second ensemble over the same
    rows finds the engine warm and enumerates nothing."""
    model, pools = census
    segments = _segments(pools)
    filled, counters, engine_steps = _run(
        model, segments, 2, DEFAULT_CPD_CACHE_SIZE
    )
    per_step, per_step_counters, _ = _run(
        model, segments, 2, DEFAULT_CPD_CACHE_SIZE, per_step=True
    )
    _assert_same_samples(filled, per_step)
    assert engine_steps["closure"] is True and engine_steps["steps"] == 0
    info, per_step_info = counters[0], per_step_counters[0]
    # Every row a step draws in reads a filled memo: all hits.
    assert info["hits"] == info["tuples_served"] == per_step_info["tuples_served"]
    assert info["groups_computed"] >= per_step_info["groups_computed"]
    assert counters[2] == per_step_counters[2]  # sampler.steps

    engine = BatchInferenceEngine(model)
    fills = []
    fill = engine.fill
    monkeypatch.setattr(
        engine, "fill", lambda *a, **k: fills.append(1) or fill(*a, **k)
    )
    sampler = GibbsSampler(model, rng=0, batch_engine=engine)
    GibbsEnsemble(sampler, segments, chains=2).run(60, burn_in=8)
    assert fills == [1]
    again = GibbsEnsemble(sampler, segments, chains=2)
    _assert_same_samples(again.run(60, burn_in=8), filled)
    assert fills == [1] and again._closure is None


@pytest.mark.parametrize("reason", ["bound", "sorted-keys", "draws"])
def test_the_closure_declines_where_it_does_not_fit(census, monkeypatch, reason):
    """A closure larger than the CPD bound, signature spaces keyed on
    sorted keys, and a closure with more states than the run has draws
    left each decline the fill: from its first miss the run is the engine
    route's, samples and counters alike."""
    model, pools = census
    segments = _segments(pools)
    cache_size, run = DEFAULT_CPD_CACHE_SIZE, {}
    if reason == "bound":
        _, counters, _ = _run(model, segments, 2, cache_size)
        cache_size = counters[0]["groups_computed"] - 1
    elif reason == "sorted-keys":
        monkeypatch.setattr(engine_module, "DENSE_INDEX_CAP", 0)
    else:
        # One recorded sweep: 4 draws for a row missing 4 attributes,
        # whose closure alone has more states.
        run = {"samples": 1, "burn_in": 0}
    declined, counters, engine_steps = _run(
        model, segments, 2, cache_size, **run
    )
    per_step, per_step_counters, _ = _run(
        model, segments, 2, cache_size, per_step=True, **run
    )
    assert engine_steps["closure"] is False
    assert engine_steps["steps"] > 0
    _assert_same_samples(declined, per_step)
    assert counters == per_step_counters
    monkeypatch.undo()
    filled, _, _ = _run(
        model, segments, 2, DEFAULT_CPD_CACHE_SIZE, **run
    )
    _assert_same_samples(declined, filled)


def test_a_declined_closure_sends_the_rest_of_the_run_through_the_engine(census):
    """Rows missing ``(0, 1)`` draw attribute 0 in rank step 0, which
    their engine holds, and attribute 1 in rank step 1, which misses.
    With the closure declined, the fused route ends at that miss and every
    later step of the run, across uniform blocks, runs through the engine,
    even once the memos hold what a fused step reads.  The samples equal
    the closure-filled fused run's, and samples and counters equal those
    of the run forced through the engine from its first step."""
    model, pools = census
    bases = pools[PATTERNS.index((0, 1))][:12]
    # Every (base, attribute 1 value): all signatures attribute 0 reads.
    card = model.schema[1].cardinality
    codes = np.repeat(np.stack([t.codes for t in bases]), card, axis=0)
    codes[:, 0] = 0
    codes[:, 1] = np.tile(np.arange(card), len(bases))

    def run(closure, engine_route=False):
        engine = BatchInferenceEngine(model)
        engine.conditional_probs_batch(codes, 0)
        engine.conditional_probs_batch(codes[:1], 1)
        if engine_route:
            engine.live_memo = lambda attr, choice, scheme: None
        sampler = GibbsSampler(model, rng=0, batch_engine=engine)
        ensemble = GibbsEnsemble(sampler, [(bases, 5)], chains=2)
        ensemble._closure = closure
        route = []
        sweep, engine_step = ensemble._run, ensemble._engine_step

        def spied_run(fused, record, sweeps, row0):
            def spied(tables, at, stop, row):
                reached = fused(tables, at, stop, row)
                route.append(("fused", at, reached))
                return reached

            return sweep(spied, record, sweeps, row0)

        def spied_step(j, uniforms):
            route.append("engine")
            engine_step(j, uniforms)

        ensemble._run, ensemble._engine_step = spied_run, spied_step
        samples = ensemble.run(40, burn_in=4)
        return samples, engine.cache_info(), route

    declined, info, route = run(False)
    positions = (4 + 20) * 2
    assert route == [("fused", 0, 1)] + ["engine"] * (positions - 1)
    filled, _, filled_route = run(None)
    assert "engine" not in filled_route
    _assert_same_samples(declined, filled)
    routed, routed_info, routed_route = run(False, engine_route=True)
    assert routed_route == ["engine"] * positions
    _assert_same_samples(declined, routed)
    assert info == routed_info


def test_a_filled_ensemble_rerun_after_a_memo_reset_matches_a_fresh_run(census):
    """An ensemble whose closure was filled keeps it decided: after another
    engine call resets a memo it read, its next run misses and finishes on
    the engine route, drawing what the same run draws without the reset."""
    model, pools = census
    segments = _segments(pools)
    _, counters, _ = _run(model, segments, 2, DEFAULT_CPD_CACHE_SIZE)
    closure = counters[0]["groups_computed"]

    def second_run(reset):
        engine = BatchInferenceEngine(model, cache_size=closure)
        sampler = GibbsSampler(model, rng=0, batch_engine=engine)
        ensemble = GibbsEnsemble(sampler, segments, chains=2)
        ensemble.run(30, burn_in=4)
        assert ensemble._closure is True
        if reset:
            # A signature outside the closure overflows the bound.
            state = np.full((1, len(model.schema)), MISSING_CODE, dtype=np.int32)
            engine.conditional_probs_batch(state, 0)
            assert engine.memo_resets == 1
        steps = []
        engine_step = ensemble._engine_step
        ensemble._engine_step = lambda *a: steps.append(1) or engine_step(*a)
        return ensemble.run(30, burn_in=4), len(steps)

    fresh, fresh_steps = second_run(reset=False)
    rerun, rerun_steps = second_run(reset=True)
    assert fresh_steps == 0 and rerun_steps > 0
    _assert_same_samples(rerun, fresh)


def test_sorted_key_memos_skip_the_fused_path(census, monkeypatch):
    """Memos without a dense index decline the CPD closure and keep every
    rank step on the engine route, drawing what the fused path draws and
    counting what the engine route counts."""
    model, pools = census
    segments = _segments(pools)
    dense, dense_counters, _ = _run(
        model, segments, 2, DEFAULT_CPD_CACHE_SIZE, per_step=True
    )
    draws = []
    column_draw = gibbs_module._column_draw
    monkeypatch.setattr(
        gibbs_module, "_column_draw",
        lambda *a: draws.append(1) or column_draw(*a),
    )
    monkeypatch.setattr(engine_module, "DENSE_INDEX_CAP", 0)
    sparse, sparse_counters, engine_steps = _run(
        model, segments, 2, DEFAULT_CPD_CACHE_SIZE
    )
    assert draws == []
    assert engine_steps["closure"] is False
    # Every rank step of every sweep: 8 + 30 sweeps of 4 rank steps.
    assert engine_steps["steps"] == (8 + 30) * 4
    _assert_same_samples(dense, sparse)
    assert dense_counters == sparse_counters


# -- batched histograms -----------------------------------------------------


def _assert_same_distribution(got, want):
    assert got.outcomes == want.outcomes
    assert got.probs.tobytes() == want.probs.tobytes()


@pytest.mark.parametrize("cells", [None, 7])
def test_batched_dense_histograms_equal_the_counting_loop(census, monkeypatch, cells):
    """Several tuples per pattern, uneven sample counts, and (at 7 cells)
    one tuple per ``bincount`` chunk."""
    if cells is not None:
        monkeypatch.setattr(gibbs_module, "HISTOGRAM_CELLS", cells)
    model, pools = census
    schema = model.schema
    rng = np.random.default_rng(4)
    for pool in pools:
        bases = pool[:5]
        missing = bases[0].missing_positions
        cards = [schema[p].cardinality for p in missing]
        samples = [
            rng.integers(0, cards, size=(n, len(cards))).astype(np.int8)
            for n in (40, 3, 40, 17, 1)
        ]
        for floor in (DEFAULT_SMOOTHING_FLOOR, 0.0):
            dists = samples_to_distributions(schema, missing, samples, floor)
            assert len({id(d.outcomes) for d in dists}) == 1
            for base, arr, dist in zip(bases, samples, dists):
                want = _reference_samples_to_distribution(
                    schema, base, [tuple(row) for row in arr.tolist()], floor
                )
                _assert_same_distribution(dist, want)
                _assert_same_distribution(
                    samples_to_distribution(schema, base, arr, floor), want
                )


def test_batched_sparse_histograms_equal_the_counting_loop():
    schema = Schema.from_domains(
        {f"a{i}": [f"v{j}" for j in range(4)] for i in range(12)}
    )
    codes = np.full(12, MISSING_CODE, dtype=np.int32)
    codes[0] = 1
    base = RelTuple(schema, codes)
    rng = np.random.default_rng(9)
    samples = []
    for n in (200, 30):
        arr = rng.integers(0, 4, size=(n, 11))
        samples.append(np.concatenate([arr, arr[: n // 5]]))
    dists = samples_to_distributions(schema, base.missing_positions, samples)
    for arr, dist in zip(samples, dists):
        want = _reference_samples_to_distribution(
            schema, base, [tuple(row) for row in arr.tolist()],
            DEFAULT_SMOOTHING_FLOOR,
        )
        _assert_same_distribution(dist, want)


def test_ensemble_blocks_equal_per_tuple_histograms(census):
    model, pools = census
    segments = _segments(pools)
    # Duplicates within a segment share their block.
    segments[1] = (segments[1][0] + segments[1][0][:3], segments[1][1])
    blocks, _ = ensemble_sampling(model, segments, num_samples=50, burn_in=5)
    sampler = GibbsSampler(model, rng=0)
    distinct = [list(dict.fromkeys(tuples)) for tuples, _ in segments]
    samples = GibbsEnsemble(
        sampler, [(d, seed) for d, (_, seed) in zip(distinct, segments)]
    ).run(50, burn_in=5)
    by_tuple = dict(zip([t for d in distinct for t in d], samples))
    inputs = [t for tuples, _ in segments for t in tuples]
    assert len(blocks) == len(inputs)
    for t, block in zip(inputs, blocks):
        assert block.base == t
        want = _reference_samples_to_distribution(
            model.schema, t, [tuple(row) for row in by_tuple[t].tolist()],
            DEFAULT_SMOOTHING_FLOOR,
        )
        _assert_same_distribution(block.distribution, want)


# -- the rank-state layout, end to end ----------------------------------------


@st.composite
def rank_state_cases(draw):
    """1-3 segments of distinct census rows missing 1 to all 5 attributes,
    1-3 chains and a sample count not always a multiple of them."""
    segments = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 59),
                    st.sets(st.integers(0, 4), min_size=1).map(sorted),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        ),
        label="segments",
    )
    chains = draw(st.integers(1, 3), label="chains")
    num_samples = draw(st.integers(1, 13), label="num_samples")
    burn_in = draw(st.integers(0, 3), label="burn_in")
    engine = draw(st.sampled_from(["cold", "warm", "cache_size=3"]), label="engine")
    dense = draw(st.sampled_from([gibbs_module.MAX_DENSE_OUTCOMES, 10]), label="dense")
    cells = draw(st.sampled_from([gibbs_module.HISTOGRAM_CELLS, 40]), label="cells")
    return segments, chains, num_samples, burn_in, engine, dense, cells


@pytest.fixture(scope="module")
def census_rows():
    """The census fixture's 60 complete test rows, before masking."""
    rng = np.random.default_rng(23)
    load_census(250, rng)
    test, _ = load_census(60, rng)
    return list(test)


@settings(max_examples=50, deadline=None)
@given(case=rank_state_cases())
def test_rank_state_ensemble_equals_the_references(census, census_rows, case):
    """Rank-state sweeps replay each segment's per-call reference loop, and
    blocks counted from the trace equal ``samples_to_distributions`` over
    :meth:`GibbsEnsemble.run`, dense and sparse patterns alike."""
    picks, chains, num_samples, burn_in, warmth, dense, cells = case
    model, _ = census
    seen = set()
    segments = []
    for s, rows in enumerate(picks):
        bases = []
        for row, pattern in rows:
            codes = census_rows[row].codes.copy()
            codes[pattern] = MISSING_CODE
            t = RelTuple(model.schema, codes)
            if t not in seen:
                seen.add(t)
                bases.append(t)
        if bases:
            segments.append((bases, 400 + s))
    assume(segments)

    def engine():
        if warmth == "cache_size=3":
            return BatchInferenceEngine(model, cache_size=3)
        warm = BatchInferenceEngine(model)
        if warmth == "warm":
            # Chains over the tuple missing every attribute visit every
            # full state, so the memos end up holding nearly every key a
            # sweep packs: rank steps run fused, with no engine step to
            # mask a wrong key.
            star = RelTuple(model.schema, np.full(5, MISSING_CODE, dtype=np.int32))
            ensemble_sampling(
                model, [(list(seen | {star}), 5)], num_samples=300, burn_in=1,
                chains=3, batch_engine=warm,
            )
        return warm

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gibbs_module, "MAX_DENSE_OUTCOMES", dense)
        mp.setattr(gibbs_module, "HISTOGRAM_CELLS", cells)
        sampler = GibbsSampler(model, rng=0, batch_engine=engine())
        samples = GibbsEnsemble(sampler, segments, chains=chains).run(
            num_samples, burn_in=burn_in
        )
        reference = [
            arr
            for bases, seed in segments
            for arr in _reference_segment(
                model, bases, seed, chains, num_samples, burn_in
            )
        ]
        assert len(samples) == len(reference)
        for got, want in zip(samples, reference):
            assert got.shape == want.shape
            assert (got == want).all()
        blocks, _ = ensemble_sampling(
            model, segments, num_samples=num_samples, burn_in=burn_in,
            chains=chains, batch_engine=engine(),
        )
        bases = [t for tuples, _ in segments for t in tuples]
        assert len(blocks) == len(bases)
        for t, arr, block in zip(bases, samples, blocks):
            assert block.base == t
            (want,) = samples_to_distributions(
                model.schema, t.missing_positions, [arr]
            )
            _assert_same_distribution(block.distribution, want)
