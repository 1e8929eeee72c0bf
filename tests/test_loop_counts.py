"""Histograms counted in the compiled sweep loop against the trace route.

:meth:`~repro.core.gibbs.GibbsEnsemble.counts` runs the ensemble with the
compiled loop adding each recorded sweep's samples straight into
per-pattern histograms; :meth:`~repro.core.gibbs.GibbsEnsemble.trace`
records every sweep instead and :func:`~repro.core.gibbs.trace_distributions`
counts the trace afterwards.  The guarantees:

* The counts equal, cell for cell, the histograms of the samples the NumPy
  rank steps' trace holds, and their distributions equal
  ``trace_distributions`` of that trace byte for byte, whatever the
  segments, chains (``num_samples`` not a multiple of them), missing
  depths, engine warmth, cache bound or burn-in: on the Hypothesis inputs
  of ``tests/test_rank_fused_sweep.py`` and on named cases (burn-in across
  uniform blocks, a miss mid-block, every step on the engine route, memo
  resets).
* Both runs leave every segment's generator, the rank state and the
  engine counters in the same state.
* Where the loop cannot count (not loaded, a sparse pattern, histograms
  larger than the trace), ``counts`` returns ``None`` without drawing, and
  ``ensemble_sampling`` gives the same blocks through the trace.
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
    trace_distributions,
)
from repro.relational.tuples import MISSING_CODE, RelTuple
from tests import test_rank_fused_sweep as rank_fused
from tests.test_rank_fused_sweep import PATTERNS, _segments, rank_state_cases

#: The rank-fused suite's module fixtures: a census model with one pool of
#: distinct tuples per pattern, and its complete test rows.
census, census_rows = rank_fused.census, rank_fused.census_rows

#: Samples past which every census pattern's histograms fit in the bytes of
#: the trace they replace, so the loop counts: a row missing all five
#: attributes has 324 outcomes (2,592 bytes) against 5 trace bytes a sweep.
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


def _reference_counts(ensemble, trace, num_samples):
    """Each pattern's histograms of the samples :meth:`run` cuts from
    ``trace``, counted one tuple at a time."""
    schema = ensemble.sampler.schema
    k = ensemble.chains
    out = []
    for missing, members, lo in ensemble.patterns:
        dims = [schema[a].cardinality for a in missing]
        space = int(np.prod(dims))
        rows = []
        for i in range(len(members)):
            at = lo + i * k * len(missing)
            samples = trace[:, at : at + k * len(missing)].reshape(-1, len(missing))
            packed = np.ravel_multi_index(tuple(samples[:num_samples].T.astype(np.int64)), dims)
            rows.append(np.bincount(packed, minlength=space))
        out.append(np.stack(rows))
    return out


def _assert_counts_equal_the_trace(model, segments, chains, num_samples, burn_in, **kw):
    """The loop's counts against the NumPy steps' trace, and every state
    both runs leave."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "ENABLED", False)
        built = _build(model, segments, chains, **kw)
        trace = built[2].trace(num_samples, burn_in)
        want_after = _after(*built)
    reference = built[2]
    built = _build(model, segments, chains, **kw)
    counts = built[2].counts(num_samples, burn_in)
    assert counts is not None, "the loop declined to count"
    assert _after(*built) == want_after
    want = _reference_counts(reference, trace, num_samples)
    assert len(counts) == len(want)
    schema = model.schema
    for (missing, members, lo), got, expected in zip(
        reference.patterns, counts, want
    ):
        assert got.dtype == np.int64
        assert got.tobytes() == expected.tobytes()
        assert (got.sum(axis=1) == num_samples).all()
        hi = lo + len(members) * chains * len(missing)
        traced = trace_distributions(
            schema, missing, trace[:, lo:hi], chains, num_samples
        )
        for a, b in zip(
            histogram_distributions(schema, missing, got, num_samples), traced
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
    _assert_counts_equal_the_trace(
        model, segments, chains, COUNTED + extra, burn_in,
        cache_size=3 if warmth == "cache_size=3" else None,
        warm=list(seen | {star}) if warmth == "warm" else None,
    )


@pytest.mark.parametrize("chains", [1, 2, 3])
def test_chains_and_samples_not_a_multiple_of_them(census, loop, chains):
    model, pools = census
    warm = [t for pool in pools for t in pool[20:26]]
    _assert_counts_equal_the_trace(
        model, _segments(pools), chains, COUNTED + 1, 5, warm=warm
    )


@pytest.mark.parametrize(
    "burn_in",
    [UNIFORM_BLOCK_SWEEPS - 1, UNIFORM_BLOCK_SWEEPS, UNIFORM_BLOCK_SWEEPS + 1, 33],
)
def test_burn_in_across_uniform_blocks(census, loop, burn_in):
    model, pools = census
    warm = [t for pool in pools for t in pool[20:26]]
    _assert_counts_equal_the_trace(
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

    _assert_counts_equal_the_trace(
        model, [(bases, 5)], 2, COUNTED + 1, 4, prepare=prepare
    )


def test_every_step_on_the_engine_route(census, loop):
    model, pools = census

    def prepare(engine):
        engine.live_memo = lambda attr, choice, scheme: None

    _assert_counts_equal_the_trace(
        model, _segments(pools), 2, COUNTED + 1, 3, prepare=prepare
    )


@pytest.mark.parametrize("cache_size", [40, 3])
def test_memo_resets(census, loop, cache_size):
    model, pools = census
    _assert_counts_equal_the_trace(
        model, _segments(pools), 3, COUNTED + 2, 7, cache_size=cache_size
    )


# -- where the loop does not count ----------------------------------------------


@pytest.mark.parametrize("why", ["disabled", "sparse", "short run"])
def test_counts_decline_without_drawing(census, loop, monkeypatch, why):
    model, pools = census
    segments = _segments(pools)
    num_samples = 12 if why == "short run" else COUNTED
    if why == "disabled":
        monkeypatch.setattr(native, "ENABLED", False)
    if why == "sparse":
        monkeypatch.setattr(gibbs_module, "MAX_DENSE_OUTCOMES", 10)
    built = _build(model, segments, 2)
    before = _after(*built)
    assert built[2].counts(num_samples, 3) is None
    assert _after(*built) == before
    blocks = []
    for enabled in (True, False):
        monkeypatch.setattr(native, "ENABLED", enabled and why != "disabled")
        got, _ = ensemble_sampling(
            model, segments, num_samples=num_samples, burn_in=3, chains=2
        )
        blocks.append([
            (b.distribution.outcomes, b.distribution.probs.tobytes()) for b in got
        ])
    assert blocks[0] == blocks[1]


def test_ensemble_sampling_counts_in_the_loop(census, loop, monkeypatch):
    """A counting run reads no trace, and its blocks equal the NumPy
    steps' byte for byte."""
    model, pools = census
    segments = _segments(pools)
    blocks = []
    for enabled in (True, False):
        monkeypatch.setattr(native, "ENABLED", enabled)
        traces = []
        trace = GibbsEnsemble.trace
        monkeypatch.setattr(
            GibbsEnsemble, "trace",
            lambda self, *a, **k: traces.append(1) or trace(self, *a, **k),
        )
        got, _ = ensemble_sampling(
            model, segments, num_samples=COUNTED + 1, burn_in=4, chains=3
        )
        monkeypatch.setattr(GibbsEnsemble, "trace", trace)
        assert bool(traces) != enabled
        blocks.append([
            (b.base, b.distribution.outcomes, b.distribution.probs.tobytes())
            for b in got
        ])
    assert blocks[0] == blocks[1]
