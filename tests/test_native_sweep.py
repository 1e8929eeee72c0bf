"""The compiled sweep loop against the NumPy rank steps.

:class:`~repro.core.gibbs.GibbsEnsemble` runs a uniform block's fused
rank steps in one call of the C loop (``repro/core/rank_sweeps.c``, built
and loaded by :mod:`repro.core.native`) when it loads, and through its
NumPy rank steps otherwise.  The guarantees:

* Both paths give byte-identical traces, final rank states and engine
  counters, whatever the segments, chains, missing depths, engine warmth,
  cache bound, trace dtype or burn-in: on the Hypothesis inputs of
  ``tests/test_rank_fused_sweep.py`` and on named cases (a miss in the
  middle of a block, a cold engine, every step on the engine route,
  int8/int16/int32 traces, burn-ins across uniform blocks, several chains
  and segments, cardinality-1 attributes, an out-of-range key).
* Without a compiler, on a compile error, an unwritable cache or a
  library that will not load, ensembles run the NumPy steps with the same
  output and no exception, and the process gets one RuntimeWarning naming
  the cause; a disabled loop warns nothing.  A corrupt cached library is
  built again and loads; with no compiler to rebuild it, the NumPy steps
  run.
* Processes building into an empty cache at the same time all load a
  working library.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.core import BatchInferenceEngine, GibbsSampler, ensemble_sampling, native
from repro.core import engine as engine_module
from repro.core.gibbs import UNIFORM_BLOCK_SWEEPS, GibbsEnsemble
from repro.core.learning import learn_mrsl
from repro.relational import Relation, Schema
from repro.relational.tuples import MISSING_CODE, RelTuple
from tests import test_rank_fused_sweep as rank_fused
from tests.test_rank_fused_sweep import PATTERNS, _segments, rank_state_cases

REPO = Path(__file__).resolve().parents[1]

#: The rank-fused suite's module fixtures: a census model with one pool of
#: distinct tuples per pattern, and its complete test rows.
census, census_rows = rank_fused.census, rank_fused.census_rows


@pytest.fixture(scope="module")
def loop():
    """The compiled loop; the equivalence tests need it loaded."""
    fn = native.rank_sweeps()
    if fn is None:
        pytest.skip("the compiled sweep loop did not build or load here")
    return fn


def _counters(engine, sampler):
    return engine.cache_info(), engine.memo_resets, sampler.steps


def _run_path(enabled, build, num_samples, burn_in, spy=None):
    """Trace, final rank state and counters of one ensemble ``build()``
    makes, on the compiled path (``enabled``) or the NumPy steps; the
    compiled loop's calls go through ``spy`` when given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "ENABLED", enabled)
        if enabled and spy is not None:
            mp.setattr(native, "_loop", spy)
        engine, sampler, ensemble = build()
        trace = ensemble.trace(num_samples, burn_in)
    return trace, ensemble._rank_state.copy(), _counters(engine, sampler)


def _assert_same_runs(got, want):
    (trace, state, counters), (want_trace, want_state, want_counters) = got, want
    assert trace.dtype == want_trace.dtype
    assert trace.shape == want_trace.shape
    assert trace.tobytes() == want_trace.tobytes()
    assert state.tobytes() == want_state.tobytes()
    assert counters == want_counters


def _assert_paths_agree(build, num_samples, burn_in, loop, fused=True):
    """Both paths byte-identical; the compiled loop ran iff ``fused``
    (either way when ``None``)."""
    calls = []

    def spy(*args):
        calls.append(args[11:13])  # (start, stop)
        return loop(*args)

    _assert_same_runs(
        _run_path(True, build, num_samples, burn_in, spy),
        _run_path(False, build, num_samples, burn_in),
    )
    if fused is not None:
        assert bool(calls) == fused
    return calls


def _builder(model, segments, chains=1, cache_size=None, warm=None, prepare=None):
    """A fresh engine (warmed over ``warm`` when given), sampler and
    ensemble per call."""

    def build():
        kwargs = {} if cache_size is None else {"cache_size": cache_size}
        engine = BatchInferenceEngine(model, **kwargs)
        if warm:
            ensemble_sampling(
                model, [(warm, 5)], num_samples=40, burn_in=2, chains=2,
                batch_engine=engine,
            )
        if prepare is not None:
            prepare(engine)
        sampler = GibbsSampler(model, rng=0, batch_engine=engine)
        return engine, sampler, GibbsEnsemble(sampler, segments, chains=chains)

    return build


# -- the Hypothesis inputs of the rank-state property ---------------------------


@settings(max_examples=40, deadline=None)
@given(case=rank_state_cases())
def test_paths_agree_on_the_rank_state_cases(census, census_rows, loop, case):
    picks, chains, num_samples, burn_in, warmth, _, _ = case
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
    build = _builder(
        model, segments, chains,
        cache_size=3 if warmth == "cache_size=3" else None,
        warm=list(seen | {star}) if warmth == "warm" else None,
    )
    _assert_paths_agree(build, num_samples, burn_in, loop, fused=None)


# -- named cases ------------------------------------------------------------------


def test_a_miss_mid_block_resumes_at_the_next_step(census, loop):
    """Rows missing ``(0, 1)``: attribute 0's memo holds every signature
    its steps reach, attribute 1's is live but nearly empty, so the loop
    stops at attribute 1's misses, the engine fills them, and the loop
    resumes at the very next step, inside the block."""
    model, pools = census
    bases = pools[PATTERNS.index((0, 1))][:12]
    card = model.schema[1].cardinality

    def prepare(engine):
        codes = np.repeat(np.stack([t.codes for t in bases]), card, axis=0)
        codes[:, 0] = 0
        codes[:, 1] = np.tile(np.arange(card), len(bases))
        engine.conditional_probs_batch(codes, 0)
        engine.conditional_probs_batch(codes[:1], 1)

    build = _builder(model, [(bases, 5)], chains=2, prepare=prepare)
    calls = _assert_paths_agree(build, 40, 4, loop)
    stops = {stop for _, stop in calls}
    # Resumed inside a block, after an engine step.
    assert any(0 < start < stop for start, stop in calls)
    assert stops == {UNIFORM_BLOCK_SWEEPS * 2, (4 + 20 - UNIFORM_BLOCK_SWEEPS) * 2}


def test_a_cold_engine(census, loop):
    model, pools = census
    _assert_paths_agree(_builder(model, _segments(pools), chains=2), 30, 5, loop)


@pytest.mark.parametrize("route", ["no-live-memo", "sorted-keys"])
def test_every_step_on_the_engine_route(census, loop, monkeypatch, route):
    """With no live dense memo every step goes through ``_engine_step``;
    the compiled loop is never called."""
    model, pools = census
    prepare = None
    if route == "sorted-keys":
        monkeypatch.setattr(engine_module, "DENSE_INDEX_CAP", 0)
    else:
        def prepare(engine):
            engine.live_memo = lambda attr, choice, scheme: None
    build = _builder(model, _segments(pools), chains=2, prepare=prepare)
    _assert_paths_agree(build, 20, 3, loop, fused=False)


@pytest.mark.parametrize(
    "burn_in", [UNIFORM_BLOCK_SWEEPS - 1, UNIFORM_BLOCK_SWEEPS, UNIFORM_BLOCK_SWEEPS + 1, 33]
)
def test_burn_in_across_uniform_blocks(census, loop, burn_in):
    model, pools = census
    warm = [t for pool in pools for t in pool[20:26]]
    build = _builder(model, _segments(pools), warm=warm)
    _assert_paths_agree(build, 2 * UNIFORM_BLOCK_SWEEPS + 3, burn_in, loop)


@pytest.mark.parametrize("cache_size", [None, 40, 3])
def test_several_chains_and_segments(census, loop, cache_size):
    model, pools = census
    warm = [t for pool in pools for t in pool[20:26]]
    build = _builder(model, _segments(pools), chains=3, cache_size=cache_size, warm=warm)
    # At 3 signatures the memos never hold a whole step.
    _assert_paths_agree(build, 50, 7, loop, fused=None if cache_size == 3 else True)


def _wide_model(card):
    """A model over ``a``, ``b``, a cardinality-1 ``one`` and ``wide`` with
    ``card`` values, each so rare that no rule conditions on it (so every
    memo keeps a dense index), and distinct rows missing 2 or 3 of them."""
    schema = Schema.from_domains({
        "a": ["x", "y"],
        "b": ["p", "q", "r"],
        "one": ["only"],
        "wide": [f"w{i}" for i in range(card)],
    })
    rng = np.random.default_rng(card)
    codes = np.stack([
        rng.integers(0, 2, 300),
        rng.integers(0, 3, 300),
        np.zeros(300, dtype=np.int64),
        rng.integers(0, card, 300),
    ], axis=1)
    rows = [[schema[i].domain[c] for i, c in enumerate(row)] for row in codes]
    model = learn_mrsl(Relation.from_rows(schema, rows), support_threshold=0.05).model
    bases = []
    for row in codes[:15]:
        for pattern in ([2, 3], [0, 3], [0, 2, 3], [1, 2]):
            masked = row.astype(np.int32)
            masked[pattern] = MISSING_CODE
            bases.append(RelTuple(schema, masked))
    return model, list(dict.fromkeys(bases))


@pytest.mark.parametrize(
    "card, dtype", [(5, np.int8), (200, np.int16), (33_000, np.int32)]
)
def test_trace_dtypes_and_cardinality_one(loop, card, dtype):
    model, bases = _wide_model(card)
    half = len(bases) // 2
    segments = [(bases[:half], 8), (bases[half:], 9)]
    build = _builder(model, segments, chains=2, warm=bases)
    assert build()[2].trace_dtype == dtype
    _assert_paths_agree(build, 30, 17, loop)


def test_an_out_of_range_key_raises_on_both_paths(census, loop):
    """A key past the index raises the ``IndexError`` of ``index.take`` on
    both paths, after the same fused steps and counters."""
    model, pools = census
    warm = [t for pool in pools for t in pool[20:26]]
    build = _builder(model, _segments(pools), warm=warm)
    results = []
    for enabled in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "ENABLED", enabled)
            engine, sampler, ensemble = build()
            ensemble.trace(20, 2)
            # The last rank step's first row: its key lands past the index.
            ensemble._weights[ensemble._rank_lo[-2], -1] += 1 << 40
            with pytest.raises(IndexError) as raised:
                ensemble.trace(20, 2)
        results.append((
            str(raised.value), ensemble._rank_state.tobytes(),
            _counters(engine, sampler),
        ))
    assert "out of bounds" in results[0][0]
    assert results[0] == results[1]


# -- the fallback ----------------------------------------------------------------


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """An unloaded loop building into an empty cache, ``tmp_path / "repro"``."""
    monkeypatch.setattr(native, "_loop", native._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path


def _assert_falls_back(census, cause):
    """The loop did not load, the process was told why in one
    RuntimeWarning naming ``cause``, and ensembles run the NumPy steps."""
    model, pools = census
    build = _builder(model, _segments(pools), chains=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _run_path(True, build, 30, 4)
        assert native.rank_sweeps() is None
        _run_path(True, build, 30, 4)
    fallbacks = [w for w in caught if "sweep loop is unavailable" in str(w.message)]
    assert len(fallbacks) == 1
    assert fallbacks[0].category is RuntimeWarning
    assert cause in str(fallbacks[0].message)
    _assert_same_runs(got, _run_path(False, build, 30, 4))


def test_no_compiler_falls_back(census, fresh_load, monkeypatch):
    monkeypatch.setattr(native, "COMPILER", str(fresh_load / "no-such-cc"))
    _assert_falls_back(census, "no C compiler")


def test_a_compile_error_falls_back(census, fresh_load, monkeypatch):
    source = fresh_load / "broken.c"
    source.write_text("this is not C;\n")
    monkeypatch.setattr(native, "SOURCE", source)
    _assert_falls_back(census, "compile error")
    assert not list((fresh_load / "repro").glob("*"))  # no temp file left


def test_a_disabled_loop_warns_nothing(census, fresh_load, monkeypatch):
    monkeypatch.setattr(native, "COMPILER", str(fresh_load / "no-such-cc"))
    model, pools = census
    build = _builder(model, _segments(pools), chains=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run_path(False, build, 30, 4)
        monkeypatch.setattr(native, "ENABLED", False)
        assert native.rank_sweeps() is None
    assert native._loop is native._UNSET  # nothing was built or loaded


@pytest.mark.parametrize("how", ["read-only", "under-a-file"])
def test_an_unwritable_cache_falls_back(census, fresh_load, monkeypatch, how):
    if how == "read-only":
        cache = fresh_load / "repro"
        cache.mkdir()
        cache.chmod(0o555)
        if os.access(cache, os.W_OK):
            # Directory modes do not bind this user (root); the
            # "under-a-file" case binds everyone.
            pytest.skip("directory modes do not bind this user")
    else:
        (fresh_load / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_load / "file"))
    _assert_falls_back(census, "unwritable cache")


def _corrupt_cached_library(cache):
    target = native.library_path(cache)
    target.parent.mkdir()
    target.write_bytes(b"\x7fELF not a library")
    return target


def test_a_corrupt_cached_library_is_built_again(loop, census, fresh_load):
    target = _corrupt_cached_library(fresh_load / "repro")
    model, pools = census
    build = _builder(model, _segments(pools), chains=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _run_path(True, build, 30, 4)
    assert native.rank_sweeps() is not None
    assert target.read_bytes().startswith(b"\x7fELF")
    assert len(target.read_bytes()) > 100
    assert [p.name for p in target.parent.iterdir()] == [target.name]
    _assert_same_runs(got, _run_path(False, build, 30, 4))


def test_a_corrupt_cached_library_without_a_compiler_falls_back(
    census, fresh_load, monkeypatch
):
    _corrupt_cached_library(fresh_load / "repro")
    monkeypatch.setattr(native, "COMPILER", str(fresh_load / "no-such-cc"))
    _assert_falls_back(census, "no C compiler")


def test_a_library_that_will_not_load_falls_back(census, fresh_load, monkeypatch):
    """A build that succeeds but leaves a file ``dlopen`` rejects."""

    def build(target, source):
        target.parent.mkdir(parents=True)
        target.write_bytes(b"\x7fELF not a library")

    monkeypatch.setattr(native, "_build", build)
    _assert_falls_back(census, "will not load")


_CHILD = """
import numpy as np
from repro.core import native
from repro.core.gibbs import GibbsEnsemble, GibbsSampler
from repro.datasets.census import load_census
from repro.core.learning import learn_mrsl
from repro.bench.masking import mask_relation

digests = []
rng = np.random.default_rng(3)
train, _ = load_census(200, rng)
test, _ = load_census(40, rng)
model = learn_mrsl(train, support_threshold=0.02).model
bases = list(dict.fromkeys(mask_relation(test, (2, 3), rng)))
for enabled in (True, False):
    native.ENABLED = enabled
    ensemble = GibbsEnsemble(GibbsSampler(model, rng=0), [(bases, 4)], chains=2)
    digests.append(ensemble.trace(40, 5).tobytes().hex())
assert native.rank_sweeps() is None  # disabled
native.ENABLED = True
print(native.rank_sweeps() is not None, digests[0] == digests[1])
"""


def test_concurrent_builds_both_load_a_working_library(loop, tmp_path):
    cache = tmp_path / "repro"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), XDG_CACHE_HOME=str(tmp_path))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD], cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        assert out.split() == ["True", "True"]
    assert [p.name for p in cache.iterdir()] == [native.library_path(cache).name]
