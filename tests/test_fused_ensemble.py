"""Fused Gibbs ensembles: one lock-step sweep over a shard's seeded segments.

The guarantees:

* A fused ensemble's blocks equal each segment run alone, bit for bit, and
  each segment consumes its generator exactly like the per-call loop the
  kernel replaced (kept here as the reference), whatever the segment size,
  the ensemble cap, the chain count or the segments' missing attributes.
* Segments — not shards — carry seeds: plans, executors, journals, resumes
  and delta re-derives agree for any worker count on workloads spanning
  several segments.
* The sample trace holds only missing cells, in the narrowest dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import DeriveConfig
from repro.api.service import DeriveRequest, InferenceService
from repro.api.session import Session
from repro.bench.masking import mask_relation
from repro.core import (
    BatchInferenceEngine,
    GibbsSampler,
    derive_probabilistic_database,
    ensemble_sampling,
    native,
)
from repro.core.engine import DEFAULT_CPD_CACHE_SIZE
from repro.core.gibbs import GibbsEnsemble, _trace_dtype
from repro.core.learning import learn_mrsl
from repro.datasets.census import load_census
from repro.exec import ShardExecutionError, execute_delta, execute_derivation
from repro.exec import plan as plan_module
from repro.exec.base import split_by_segments
from repro.exec.executors import host_cpus
from repro.exec.faults import FaultPlan, ShardFault
from repro.exec.plan import plan_shards
from repro.exec.work import ShardKnobs, multi_shard_blocks, run_shard
from repro.jobs import JobManager, JobStore
from repro.probdb import CarryStore
from repro.relational import ChangeSet, Relation, update
from repro.relational.tuples import MISSING_CODE, RelTuple
from tests.test_exec import assert_identical_databases

CONFIG = dict(support_threshold=0.02, num_samples=40, burn_in=6, seed=19)


#: Missing-position patterns no two of which subsume each other, so every
#: tuple is its own subsumption component and segments follow input order.
PATTERNS = [(0, 1), (3, 4), (1, 2, 3)]


@pytest.fixture(scope="module")
def census():
    """Census model, a multi-missing workload of ~70 distinct tuples
    missing 2 or 3 of the 5 attributes, the relation holding it, and one
    pool of distinct tuples per :data:`PATTERNS` entry."""
    rng = np.random.default_rng(7)
    train, _ = load_census(250, rng)
    test, _ = load_census(80, rng)
    masked = list(mask_relation(test, (2, 3), rng))
    model = learn_mrsl(train, support_threshold=0.02).model
    pools = []
    for pattern in PATTERNS:
        pool = []
        for t in test:
            codes = t.codes.copy()
            codes[list(pattern)] = MISSING_CODE
            pool.append(RelTuple(t.schema, codes))
        pools.append(list(dict.fromkeys(pool)))
    return model, masked, Relation(train.schema, list(train) + masked), pools


def _knobs(chains=1):
    cfg = DeriveConfig(**CONFIG, gibbs_chains=chains)
    return ShardKnobs.from_config(cfg)


def _assert_same_blocks(a, b):
    assert len(a) == len(b)
    for ba, bb in zip(a, b):
        assert ba.base == bb.base
        assert ba.distribution.outcomes == bb.distribution.outcomes
        assert (
            np.asarray(ba.distribution.probs) == np.asarray(bb.distribution.probs)
        ).all()


def _reference_segment(model, bases, seed, chains, num_samples, burn_in):
    """The per-call ensemble loop the fused kernel replaced, for one segment:
    one ``rng.random(n)`` per (sweep, attribute), full-width int32 trace."""
    engine = BatchInferenceEngine(model)
    schema = model.schema
    rng = np.random.default_rng(seed)
    k = chains
    states = np.empty((len(bases) * k, len(schema)), dtype=np.int32)
    rows_by_attr = {}
    for i, base in enumerate(bases):
        states[i * k : (i + 1) * k] = base.codes
        for attr in base.missing_positions:
            rows_by_attr.setdefault(attr, []).extend(range(i * k, (i + 1) * k))
    for i, base in enumerate(bases):
        for attr in base.missing_positions:
            states[i * k : (i + 1) * k, attr] = rng.integers(
                schema[attr].cardinality, size=k
            )
    sweeps = -(-num_samples // k)
    trace = []
    for s in range(burn_in + sweeps):
        for attr in sorted(rows_by_attr):
            rows = np.asarray(rows_by_attr[attr])
            cdf = engine.conditional_probs_batch(
                states[rows], attr, cumulative=True
            )
            u = rng.random(rows.size)
            states[rows, attr] = (cdf <= u[:, None]).sum(axis=1)
        if s >= burn_in:
            trace.append(states.copy())
    trace = np.stack(trace)
    return [
        trace[:, i * k : (i + 1) * k][:, :, list(base.missing_positions)]
        .reshape(sweeps * k, -1)[:num_samples]
        for i, base in enumerate(bases)
    ]


# -- the kernel -----------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    segment=st.integers(2, 7),
    cap=st.integers(2, 40),
    chains=st.sampled_from([1, 2, 4]),
    workers=st.integers(1, 4),
    runs=st.lists(st.integers(3, 12), min_size=3, max_size=3),
)
def test_fused_shards_equal_segments_run_alone(
    census, segment, cap, chains, workers, runs
):
    model, _, _, pools = census
    # One run of tuples per missing pattern, in order: consecutive segments
    # cut across the runs, so their missing-attribute unions differ.
    workload = [t for pool, n in zip(pools, runs) for t in pool[:n]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_module, "MULTI_TUPLES_PER_ENSEMBLE", cap)
        mp.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", segment)
        plan = plan_shards(workload, model, workers=workers, seed=3)
    chunks = [
        (tuples, g)
        for shard in plan.multi_shards
        for tuples, g in zip(
            split_by_segments(shard.tuples, shard.segments), shard.segments
        )
    ]
    assert len(chunks) == -(-len(workload) // segment)
    unions = {
        frozenset(p for t in tuples for p in t.missing_positions)
        for tuples, _ in chunks
    }
    assert len(unions) > 1
    knobs = _knobs(chains)
    engine = BatchInferenceEngine(model)
    for shard in plan.multi_shards:
        if len(shard.segments) > 1:
            assert shard.groups <= cap
        fused = run_shard(shard, model, knobs, batch_engine=engine).blocks
        alone = []
        for tuples, g in zip(
            split_by_segments(shard.tuples, shard.segments), shard.segments
        ):
            alone.extend(
                multi_shard_blocks([(tuples, g.seed)], model, knobs)[0]
            )
        _assert_same_blocks(fused, alone)


@pytest.mark.parametrize("chains", [1, 3])
def test_segment_stream_matches_per_call_reference(census, chains):
    """Block-drawn, permuted uniforms replay the per-call draw order."""
    model, masked, _, _ = census
    distinct = list(dict.fromkeys(masked))
    segments = [(distinct[:9], 101), (distinct[9:13], 202), (distinct[13:30], 303)]
    sampler = GibbsSampler(model, rng=0)
    ensemble = GibbsEnsemble(
        sampler,
        [(bases, np.random.default_rng(seed)) for bases, seed in segments],
        chains=chains,
    )
    # More sweeps than one uniform block, ending mid-block.
    fused = ensemble.run(150, burn_in=20)
    reference = [
        arr
        for bases, seed in segments
        for arr in _reference_segment(model, bases, seed, chains, 150, 20)
    ]
    assert len(fused) == len(reference)
    for f, r in zip(fused, reference):
        assert f.shape == r.shape
        assert (f == r).all()


#: ``cache_info()`` counters ``(hits, tuples_served, groups_computed)`` of
#: the reset-safety workload, as the engine route counts them; perfbench's
#: ``engine.cpd_hit_rate`` reads these counters.  Under the default bound
#: the first miss fills the CPD closure, 173 signatures (11 of them never
#: drawn from in this short run), and serves no row, so every row drawn
#: after it is a hit.  At 3 and 40 the closure does not fit: misses batch
#: per rank step and attribute.
RESET_WORKLOAD_COUNTERS = {
    DEFAULT_CPD_CACHE_SIZE: (1680, 1680, 173),
    3: (0, 1680, 1461),
    40: (256, 1680, 1262),
}


def test_bound_steps_survive_memo_resets(census):
    """Small CPD bounds reset memos mid-run: both are smaller than the
    CPD closure, whose fill declines (a fill never resets a memo), so at 3
    signatures every memo resets and each batch that alone outgrows the
    bound drops its memo; at 40 resets mix with memo hits.  The fused rank steps, in the compiled
    loop (where it loads) and in NumPy, must notice, rebind and draw the
    same samples, counted as the engine route counts them (no memo to
    bind, every rank step one ``conditional_probs_batch`` call per
    attribute it draws)."""
    model, masked, _, _ = census
    workload = list(dict.fromkeys(masked))[:8]
    blocks, counters = {}, {}
    for cache_size in RESET_WORKLOAD_COUNTERS:
        for route in ("compiled", "numpy", "engine"):
            engine = BatchInferenceEngine(model, cache_size=cache_size)
            if route == "engine":
                engine.live_memo = lambda attr, choice, scheme: None
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(native, "ENABLED", route == "compiled")
                run, _ = ensemble_sampling(
                    model, [(workload, 11)], num_samples=60, burn_in=10,
                    chains=2, batch_engine=engine,
                )
            info = engine.cache_info()
            counted = (
                info["hits"], info["tuples_served"], info["groups_computed"]
            )
            if route == "compiled":
                blocks[cache_size], counters[cache_size] = run, counted
            else:
                _assert_same_blocks(blocks[cache_size], run)
                assert counted == counters[cache_size]
        if cache_size != DEFAULT_CPD_CACHE_SIZE:
            assert engine.memo_resets > 0
            _assert_same_blocks(blocks[DEFAULT_CPD_CACHE_SIZE], blocks[cache_size])
    assert counters == RESET_WORKLOAD_COUNTERS


def test_trace_dtype_and_shape(census):
    model, masked, _, _ = census
    distinct = list(dict.fromkeys(masked))[:10]
    ensemble = GibbsSampler(model, rng=1).ensemble(distinct, chains=2)
    # Census codes fit int8; only missing cells are recorded.
    assert ensemble.trace_dtype == np.int8
    assert ensemble.cells == 2 * sum(t.num_missing for t in distinct)
    out = ensemble.run(25, burn_in=2)
    for t, samples in zip(distinct, out):
        assert samples.dtype == np.int8
        assert samples.shape == (25, t.num_missing)
    assert _trace_dtype([2, 128]) == np.int8
    assert _trace_dtype([129]) == np.int16
    assert _trace_dtype([40_000]) == np.int32


def test_ensemble_rejects_duplicates_across_segments(census):
    model, masked, _, _ = census
    t = masked[0]
    with pytest.raises(ValueError, match="distinct"):
        GibbsEnsemble(GibbsSampler(model, rng=0), [([t], 1), ([t], 2)])
    with pytest.raises(ValueError, match="at least one"):
        GibbsEnsemble(GibbsSampler(model, rng=0), [([t], 1), ([], 2)])


# -- plans and executors ------------------------------------------------------


@pytest.fixture
def small_segments(monkeypatch):
    """Segments of 8 distinct tuples, so the workload spans ~9 of them."""
    monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", 8)


def _segments(plan):
    return [(g.key, g.seed) for s in plan.multi_shards for g in s.segments]


def test_shards_fuse_per_worker_and_segments_stay_put(census, small_segments):
    model, masked, _, _ = census
    plans = {
        w: plan_shards(masked, model, workers=w, seed=4)
        for w in (1, 2, 3, 4)
    }
    assert len(_segments(plans[1])) >= 3
    for w, plan in plans.items():
        assert _segments(plan) == _segments(plans[1])
        assert len(plan.multi_shards) == min(w, len(_segments(plan)))
        # Balanced: no fused shard holds more than its share plus a segment.
        total = sum(s.groups for s in plan.multi_shards)
        assert max(s.groups for s in plan.multi_shards) <= total / w + 8
    # The ensemble cap splits even a serial plan.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_module, "MULTI_TUPLES_PER_ENSEMBLE", 20)
        capped = plan_shards(masked, model, workers=1, seed=4)
    assert _segments(capped) == _segments(plans[1])
    assert all(s.groups <= 20 for s in capped.multi_shards)
    assert len(capped.multi_shards) > 1


@pytest.mark.parametrize(
    "executor, workers",
    [
        ("serial", 1),
        ("serial", 4),
        ("process", 1),
        ("process", 2),
        ("process", 3),
        ("process", 4),
    ],
)
def test_executors_identical_across_segments(
    census, small_segments, executor, workers
):
    model, _, relation, _ = census
    reference = derive_probabilistic_database(
        relation, config=DeriveConfig(**CONFIG), model=model
    )
    multis = [t for t in reference.exec_report.timings if t.kind == "multi"]
    assert len(multis) == 1 and multis[0].groups > 2 * 8
    result = derive_probabilistic_database(
        relation,
        config=DeriveConfig(**CONFIG, executor=executor, workers=workers),
        model=model,
    )
    assert_identical_databases(reference.database, result.database)
    # Serial runs one worker; the process pool, and so the plan, is sized
    # to the host's CPUs.
    pool = 1 if executor == "serial" else min(workers, host_cpus())
    fused = [t for t in result.exec_report.timings if t.kind == "multi"]
    assert len(fused) == result.exec_report.workers == pool


# -- journal, resume and delta ------------------------------------------------------


def test_resume_carries_completed_segments(census, small_segments, monkeypatch):
    """A fused shard journals one record per segment; a run cut short by a
    fault resumes from those records and equals a clean run."""
    monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_ENSEMBLE", 24)
    model, masked, _, _ = census
    cfg = DeriveConfig(**CONFIG, shard_retries=0)
    clean = execute_derivation(masked, model, cfg)
    assert len(clean.plan.multi_shards) >= 2
    first = clean.plan.multi_shards[0]
    assert len(first.segments) >= 2

    records, seeds = [], []
    with pytest.raises(ShardExecutionError):
        execute_derivation(
            masked,
            model,
            cfg,
            on_plan=lambda plan: seeds.append(plan.base_seed),
            on_shard=lambda result: records.extend(result.records()),
            faults=FaultPlan(faults=(ShardFault(kind="error", index=1),)),
        )
    assert [key for key, _, _ in records] == [g.key for g in first.segments]
    carry = CarryStore.from_shards(records, seeds[0])
    assert set(carry.multi) == {g.key for g in first.segments}

    resumed = execute_delta(masked, model, cfg, carry)
    assert resumed.report.carried_over == len(first.segments)
    assert resumed.report.carried_tuples == len(first)
    for a, b in zip(clean.blocks, resumed.blocks):
        assert a.base == b.base
        assert a.distribution.outcomes == b.distribution.outcomes
        assert (a.distribution.probs == b.distribution.probs).all()


def test_delta_dirties_one_segment_of_a_fused_shard(census, small_segments):
    model, _, relation, pools = census
    # 30 singleton components, 8 per segment: 4 segments in one fused shard.
    multis = [t for pool in pools for t in pool[:10]]
    train = list(relation.complete_part())
    table = Relation(relation.schema, train + multis)
    config = DeriveConfig(**CONFIG)
    baseline = derive_probabilistic_database(table, config=config, model=model)
    fused = [t for t in baseline.exec_report.timings if t.kind == "multi"]
    assert len(fused) == 1 and fused[0].groups == 30
    # Change one known cell of a tuple in the third segment to a value no
    # other tuple has there: it stays its own component, in place.
    row = len(train) + 17
    t = table[row]
    pos = next(p for p in range(len(t.schema)) if p not in t.missing_positions)
    attr = t.schema[pos]
    taken = {u.codes.tobytes() for u in multis}
    for value in attr.domain:
        codes = t.codes.copy()
        codes[pos] = attr.code(value)
        if codes.tobytes() not in taken:
            break
    else:
        pytest.fail("no free value to update to")
    updated = table.copy()
    updated.apply_changeset(ChangeSet([update(row, {attr.name: value})]))

    delta = derive_probabilistic_database(
        updated, config=config, previous=baseline
    )
    scratch = derive_probabilistic_database(
        updated, config=config, model=model, rng=baseline.base_seed
    )
    assert_identical_databases(delta.database, scratch.database)
    report = delta.exec_report
    executed = [t for t in report.timings if not t.carried]
    assert [(t.kind, t.groups) for t in executed] == [("multi", 8)]
    # The other three segments of the fused shard carry one by one.
    assert report.carried_over == 3
    assert report.carried_tuples == 22


def test_job_journal_writes_one_row_per_segment(census, small_segments, tmp_path):
    """The durable job journal records a fused shard segment by segment."""
    model, _, relation, _ = census
    store = JobStore(tmp_path / "state")
    journaled = []
    record = store.record_shard

    def spy(job_id, key, kind, blocks):
        journaled.append((key, kind, len(blocks)))
        record(job_id, key, kind, blocks)

    store.record_shard = spy
    payload = {
        "schema": {a.name: list(a.domain) for a in relation.schema},
        "rows": [list(t.values()) for t in relation],
        "config": CONFIG,
    }
    service = InferenceService(Session(), jobs=JobManager(store=store))
    try:
        ack = service.derive_async(DeriveRequest.from_dict(payload))
        job = service.jobs.get(ack.job_id)
        assert job.wait(timeout=120) and job.state == "done"
    finally:
        service.jobs.close()
        store.close()
    plan = plan_shards([t for t in relation if t.num_missing > 1], model, seed=19)
    (fused,) = plan.multi_shards
    # A segment journals one block per distinct tuple.
    multi = [(key, n) for key, kind, n in journaled if kind == "multi"]
    assert multi == [(g.key, g.distinct) for g in fused.segments]
