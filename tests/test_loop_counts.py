"""Histograms counted as the chains sweep, against the sampled references.

:meth:`~repro.core.gibbs.GibbsEnsemble.counts` runs the ensemble adding
each recorded sweep's samples straight into per-pattern histograms: in the
compiled loop where it loads, and through NumPy where it does not or an
engine step completes the sweep.  :meth:`~repro.core.gibbs.GibbsEnsemble.run`
records the samples themselves.  The guarantees:

* The counts equal, cell for cell, the histograms of the samples ``run``
  returns, and their distributions equal ``samples_to_distributions`` of
  those samples byte for byte, whatever the segments, chains
  (``num_samples`` not a multiple of them), missing depths, engine warmth,
  cache bound or burn-in: on the Hypothesis inputs of
  ``tests/test_rank_fused_sweep.py`` and on named cases (burn-in across
  uniform blocks, a miss mid-block, every step on the engine route, memo
  resets, short runs).
* The compiled loop's counts equal the NumPy steps' counts.
* Every run leaves every segment's generator, the rank state and the
  engine counters in the same state.
* Only a sparse pattern makes ``counts`` return ``None``, drawing nothing;
  ``ensemble_sampling`` then takes the blocks from ``run``'s samples, and
  records a trace on no other ensemble.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.core import BatchInferenceEngine, GibbsSampler, ensemble_sampling, native
from repro.core import gibbs as gibbs_module
from repro.core.gibbs import (
    UNIFORM_BLOCK_SWEEPS,
    GibbsEnsemble,
    histogram_distributions,
    samples_to_distributions,
)
from repro.relational.tuples import MISSING_CODE, RelTuple
from tests import test_rank_fused_sweep as rank_fused
from tests.test_rank_fused_sweep import PATTERNS, _segments, rank_state_cases

#: The rank-fused suite's module fixtures: a census model with one pool of
#: distinct tuples per pattern, and its complete test rows.
census, census_rows = rank_fused.census, rank_fused.census_rows

#: Samples per tuple of the named cases: more than one uniform block of
#: recorded sweeps at every chain count tested.
COUNTED = 600


@pytest.fixture(scope="module")
def loop():
    fn = native.rank_sweeps()
    if fn is None:
        pytest.skip("the compiled sweep loop did not build or load here")
    return fn


def _build(model, segments, chains, cache_size=None, warm=None, prepare=None):
    """A fresh engine (warmed over ``warm``), sampler, ensemble and the
    segments' generators."""
    kwargs = {} if cache_size is None else {"cache_size": cache_size}
    engine = BatchInferenceEngine(model, **kwargs)
    if warm:
        ensemble_sampling(
            model, [(warm, 5)], num_samples=40, burn_in=2, chains=2,
            batch_engine=engine,
        )
    if prepare is not None:
        prepare(engine)
    generators = [np.random.default_rng(seed) for _, seed in segments]
    sampler = GibbsSampler(model, rng=0, batch_engine=engine)
    ensemble = GibbsEnsemble(
        sampler,
        [(bases, rng) for (bases, _), rng in zip(segments, generators)],
        chains=chains,
    )
    return engine, sampler, ensemble, generators


def _after(engine, sampler, ensemble, generators):
    return (
        [rng.bit_generator.state for rng in generators],
        ensemble._rank_state.tobytes(),
        engine.cache_info(), engine.memo_resets, sampler.steps,
    )


def _reference_counts(ensemble, samples):
    """Each pattern's histograms of ``samples`` (what :meth:`run`
    returns), counted one tuple at a time."""
    schema = ensemble.sampler.schema
    out = []
    for missing, members, _ in ensemble.patterns:
        dims = [schema[a].cardinality for a in missing]
        space = int(np.prod(dims))
        rows = [
            np.bincount(
                np.ravel_multi_index(tuple(samples[i].T.astype(np.int64)), dims),
                minlength=space,
            )
            for i in members
        ]
        out.append(np.stack(rows))
    return out


def _counted(model, segments, chains, num_samples, burn_in, enabled, **kw):
    """``counts`` with the compiled loop on or off, and the states the run
    leaves."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "ENABLED", enabled)
        built = _build(model, segments, chains, **kw)
        counts = built[2].counts(num_samples, burn_in)
        assert counts is not None, "a dense ensemble declined to count"
        return counts, _after(*built)


def _assert_counts_equal_the_samples(model, segments, chains, num_samples, burn_in, **kw):
    """The compiled loop's and the NumPy steps' counts against the samples
    :meth:`run` draws, and every state the three runs leave."""
    built = _build(model, segments, chains, **kw)
    samples = built[2].run(num_samples, burn_in)
    want_after = _after(*built)
    reference = built[2]
    want = _reference_counts(reference, samples)
    schema = model.schema
    for enabled in (True, False):
        counts, after = _counted(
            model, segments, chains, num_samples, burn_in, enabled, **kw
        )
        assert after == want_after
        assert len(counts) == len(want)
        for (missing, members, _), got, expected in zip(
            reference.patterns, counts, want
        ):
            assert got.dtype == np.int64
            assert got.tobytes() == expected.tobytes()
            assert (got.sum(axis=1) == num_samples).all()
            sampled = samples_to_distributions(
                schema, missing, [samples[i] for i in members]
            )
            for a, b in zip(
                histogram_distributions(schema, missing, got, num_samples), sampled
            ):
                assert a.outcomes == b.outcomes
                assert a.probs.tobytes() == b.probs.tobytes()


@settings(max_examples=30, deadline=None)
@given(case=rank_state_cases())
def test_counts_equal_the_trace_on_the_rank_state_cases(census, census_rows, loop, case):
    picks, chains, extra, burn_in, warmth, _, _ = case
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
    star = RelTuple(model.schema, np.full(5, MISSING_CODE, dtype=np.int32))
    _assert_counts_equal_the_samples(
        model, segments, chains, COUNTED + extra, burn_in,
        cache_size=3 if warmth == "cache_size=3" else None,
        warm=list(seen | {star}) if warmth == "warm" else None,
    )


@pytest.mark.parametrize("chains", [1, 2, 3])
def test_chains_and_samples_not_a_multiple_of_them(census, loop, chains):
    model, pools = census
    warm = [t for pool in pools for t in pool[20:26]]
    _assert_counts_equal_the_samples(
        model, _segments(pools), chains, COUNTED + 1, 5, warm=warm
    )


@pytest.mark.parametrize(
    "burn_in",
    [UNIFORM_BLOCK_SWEEPS - 1, UNIFORM_BLOCK_SWEEPS, UNIFORM_BLOCK_SWEEPS + 1, 33],
)
def test_burn_in_across_uniform_blocks(census, loop, burn_in):
    model, pools = census
    warm = [t for pool in pools for t in pool[20:26]]
    _assert_counts_equal_the_samples(
        model, _segments(pools), 2, COUNTED + 3, burn_in, warm=warm
    )


def test_a_miss_mid_block(census, loop):
    """Attribute 0's memo holds every signature its steps reach, attribute
    1's is nearly empty: the last rank step misses, and the sweeps its
    engine steps complete are counted outside the loop."""
    model, pools = census
    bases = pools[PATTERNS.index((0, 1))][:12]
    card = model.schema[1].cardinality

    def prepare(engine):
        codes = np.repeat(np.stack([t.codes for t in bases]), card, axis=0)
        codes[:, 0] = 0
        codes[:, 1] = np.tile(np.arange(card), len(bases))
        engine.conditional_probs_batch(codes, 0)
        engine.conditional_probs_batch(codes[:1], 1)

    _assert_counts_equal_the_samples(
        model, [(bases, 5)], 2, COUNTED + 1, 4, prepare=prepare
    )


def test_every_step_on_the_engine_route(census, loop):
    model, pools = census

    def prepare(engine):
        engine.live_memo = lambda attr, choice, scheme: None

    _assert_counts_equal_the_samples(
        model, _segments(pools), 2, COUNTED + 1, 3, prepare=prepare
    )


@pytest.mark.parametrize("cache_size", [40, 3])
def test_memo_resets(census, loop, cache_size):
    model, pools = census
    _assert_counts_equal_the_samples(
        model, _segments(pools), 3, COUNTED + 2, 7, cache_size=cache_size
    )


# -- blocks -----------------------------------------------------------------------


def _blocks(blocks):
    return [
        (b.base, b.distribution.outcomes, b.distribution.probs.tobytes())
        for b in blocks
    ]


def _reference_blocks(model, segments, chains, num_samples, burn_in):
    """Per tuple, ``samples_to_distributions`` of the samples :meth:`run`
    draws for it, as :func:`_blocks` lists them."""
    schema = model.schema
    ensemble = _build(model, segments, chains)[2]
    samples = ensemble.run(num_samples, burn_in)
    out = []
    for base, arr in zip(ensemble.bases, samples):
        (dist,) = samples_to_distributions(schema, base.missing_positions, [arr])
        out.append((base, dist.outcomes, dist.probs.tobytes()))
    return out


@pytest.fixture()
def traces(monkeypatch):
    """One entry per :meth:`GibbsEnsemble.trace` call."""
    calls = []
    trace = GibbsEnsemble.trace

    def spy(self, *args, **kwargs):
        calls.append(1)
        return trace(self, *args, **kwargs)

    monkeypatch.setattr(GibbsEnsemble, "trace", spy)
    return calls


@pytest.mark.parametrize("why", ["disabled", "short run"])
def test_unloaded_loop_and_short_runs_count(census, loop, monkeypatch, traces, why):
    """Without the compiled loop, and on a run shorter than one uniform
    block, ``counts`` counts, and ``ensemble_sampling`` records no trace
    and gives the reference blocks."""
    model, pools = census
    segments = _segments(pools)
    num_samples = 12 if why == "short run" else COUNTED
    _assert_counts_equal_the_samples(model, segments, 2, num_samples, 3)
    want = _reference_blocks(model, segments, 2, num_samples, 3)
    traces.clear()
    monkeypatch.setattr(native, "ENABLED", why != "disabled")
    got, _ = ensemble_sampling(
        model, segments, num_samples=num_samples, burn_in=3, chains=2
    )
    assert not traces
    assert _blocks(got) == want


@pytest.mark.parametrize("why", ["sparse", "mixed"])
def test_counts_decline_without_drawing(census, loop, monkeypatch, traces, why):
    """A sparse pattern, alone or beside dense ones, makes ``counts``
    decline without drawing; ``ensemble_sampling`` then records one trace
    and gives the reference blocks, with the loop or without."""
    model, pools = census
    segments = _segments(pools)
    # The census patterns span 3 to 108 outcomes: over 2 every one is
    # sparse, over 10 those missing (2,) and (3, 4) stay dense.
    dense = 2 if why == "sparse" else 10
    monkeypatch.setattr(gibbs_module, "MAX_DENSE_OUTCOMES", dense)
    built = _build(model, segments, 2)
    spaces = built[2]._spaces
    assert max(spaces) > dense
    assert (min(spaces) > dense) == (why == "sparse")
    before = _after(*built)
    assert built[2].counts(COUNTED, 3) is None
    assert _after(*built) == before
    want = _reference_blocks(model, segments, 2, COUNTED, 3)
    for enabled in (True, False):
        monkeypatch.setattr(native, "ENABLED", enabled)
        traces.clear()
        got, _ = ensemble_sampling(
            model, segments, num_samples=COUNTED, burn_in=3, chains=2
        )
        assert traces == [1]
        assert _blocks(got) == want


def test_ensemble_sampling_counts_in_the_loop(census, loop, monkeypatch, traces):
    """A dense run records no trace, with the loop or without, and its
    blocks equal the reference byte for byte."""
    model, pools = census
    segments = _segments(pools)
    want = _reference_blocks(model, segments, 3, COUNTED + 1, 4)
    for enabled in (True, False):
        monkeypatch.setattr(native, "ENABLED", enabled)
        traces.clear()
        got, _ = ensemble_sampling(
            model, segments, num_samples=COUNTED + 1, burn_in=4, chains=3
        )
        assert not traces
        assert _blocks(got) == want
