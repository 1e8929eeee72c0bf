"""Vectorized multi-chain Gibbs kernel vs the scalar sampler (fig. 11 shape).

A multi-missing census workload — the Algorithm 3 regime where every
missing attribute of every tuple needs one conditional CPD and one draw
per sweep — sampled twice with identical settings: once by the scalar
tuple-DAG sampler (``workload_sampling(strategy="tuple_dag")``, called
directly, so it pays for no planning) and once by the pipeline's
vectorized lock-step ensemble through ``derive_probabilistic_database``.
Both runs are serial and single-threaded, so the speedup measures
vectorization alone, not parallelism; the bar therefore applies on any
host.

Each variant runs ``REPEATS`` times, alternating the order of the variants
so host drift hits all alike, and the bench asserts the median vectorized
run is at least ``MIN_SPEEDUP`` times faster than the median scalar run
(override via ``REPRO_MIN_GIBBS_SPEEDUP``).  It records the table to
``benchmarks/results/gibbs_speedup.txt``, and writes the machine-readable
``benchmarks/results/BENCH_gibbs.json``.  A ``gibbs_chains=4`` row rides
along to show multi-chain pooling lands at essentially the same wall-clock
as one chain (the mixing knob is free); it carries no speedup gate.

A last row gives the ensemble's per-sweep floor a number: one warm-engine
``ensemble_sampling`` call over ``FLOOR_TUPLES`` distinct tuples of the
same workload, ``FLOOR_SAMPLES`` samples after ``FLOOR_BURN_IN`` sweeps.
So few rows leave each sweep's cost to its fixed per-step work.  It runs
``FLOOR_RUNS`` times in each of the alternating slots; the median goes to
``floor_s`` in ``BENCH_gibbs.json``.  It carries no gate either.

``test_gibbs_work`` is the gate's deterministic twin: on the same
workload it checks the work a warm-engine derive does, not its time.  Its
multi-missing rows run in compiled ensembles that take no engine step,
count every chain's rank steps (``sampler.steps == per_sweep * (burn_in
+ sweeps)``), add exactly ``num_samples`` samples into each tuple's
histogram in the compiled loop, and never record a trace
(``GibbsEnsemble.trace``) or gather uniforms into rank order
(``GibbsEnsemble._uniforms``).  ``test_cold_work`` is its twin for a cold
engine, on ``test_shard_speedup``'s workload: a serial derive and one
fork-inherited worker fill each ensemble's CPD closure at its first miss
and so take no engine step either.

Samples differ between the kernels (different, equally admissible draws of
the same randomized procedure — see docs/execution.md); the scalar-vs-
vectorized equivalence suite lives in ``tests/test_gibbs_vectorized.py``
and both are checked against the exact stationary distribution in
``tests/test_gibbs_oracle.py``.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.api.config import DeriveConfig
from repro.bench.masking import mask_relation
import pytest

from repro.core import (
    BatchInferenceEngine,
    derive_probabilistic_database,
    ensemble_sampling,
    learn_mrsl,
    native,
    workload_sampling,
)
from repro.core.gibbs import GibbsEnsemble
from repro.datasets.census import load_census
from repro.relational import Relation

RESULTS_DIR = Path(__file__).parent / "results"

#: Required vectorized-over-scalar speedup.  Both runs are serial, so this
#: is a pure single-thread kernel comparison and holds on shared runners.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_GIBBS_SPEEDUP", "4.0"))

#: Runs per variant; the gate compares their medians.
REPEATS = 3

#: The floor ensemble: distinct tuples, samples and burn-in sweeps.
FLOOR_TUPLES, FLOOR_SAMPLES, FLOOR_BURN_IN = 12, 1000, 50

#: Floor runs per alternating slot (one is ~0.1 s).
FLOOR_RUNS = 5


def _setup(scale):
    training = 20_000 if scale == "paper" else 2500
    doubles = 600 if scale == "paper" else 160
    triples = 300 if scale == "paper" else 80
    support = 0.001 if scale == "paper" else 0.005
    rng = np.random.default_rng(2011)
    train, _ = load_census(training, rng)
    model = learn_mrsl(train, support_threshold=support).model
    two_part, _ = load_census(doubles, rng)
    three_part, _ = load_census(triples, rng)
    incomplete = list(mask_relation(two_part, 2, rng)) + list(
        mask_relation(three_part, 3, rng)
    )
    relation = Relation(train.schema, incomplete)
    return model, relation


def test_gibbs_speedup(report, scale):
    model, relation = _setup(scale)
    num_samples = 500 if scale == "paper" else 200
    base = DeriveConfig(num_samples=num_samples, burn_in=20, seed=2011)
    multi_tuples = list(relation.incomplete_part())

    def scalar():
        blocks, stats = workload_sampling(
            model, multi_tuples, num_samples=num_samples, burn_in=20,
            strategy="tuple_dag", rng=2011,
        )
        return "-", len(blocks), stats.total_draws

    def derive(cfg):
        def run():
            result = derive_probabilistic_database(
                relation, config=cfg, model=model
            )
            return (
                result.exec_report.num_shards,
                len(result.database.blocks),
                result.sampling_stats.total_draws,
            )

        return run

    floor_tuples = list(dict.fromkeys(multi_tuples))[:FLOOR_TUPLES]
    floor_engine = BatchInferenceEngine(model)

    def floor():
        blocks, stats = ensemble_sampling(
            model, [(floor_tuples, 2011)], num_samples=FLOOR_SAMPLES,
            burn_in=FLOOR_BURN_IN, batch_engine=floor_engine,
        )
        return "-", len(blocks), stats.total_draws

    floor()  # warm the engine: the floor excludes computing CPDs
    floor_label = (
        f"ensemble floor ({FLOOR_TUPLES} tuples, "
        f"{FLOOR_SAMPLES}+{FLOOR_BURN_IN} sweeps)"
    )
    variants = (
        ("scalar", scalar, 1),
        ("vectorized", derive(base), 1),
        ("vectorized x4 chains", derive(base.replacing(gibbs_chains=4)), 1),
        (floor_label, floor, FLOOR_RUNS),
    )
    runs = {label: [] for label, _, _ in variants}
    results = {}
    for i in range(REPEATS):
        for label, run, count in variants if i % 2 == 0 else variants[::-1]:
            for _ in range(count):
                start = time.perf_counter()
                results[label] = run()
                runs[label].append(time.perf_counter() - start)
    times = {label: statistics.median(t) for label, t in runs.items()}
    rows = [
        (label, *results[label], round(times[label], 4 if count > 1 else 3))
        for label, _, count in variants
    ]

    speedup = times["scalar"] / max(times["vectorized"], 1e-9)
    pooled = times["scalar"] / max(times["vectorized x4 chains"], 1e-9)
    rows.append(("speedup", "-", "-", "-", round(speedup, 2)))

    report(
        "gibbs_speedup",
        ["kernel", "shards", "blocks", "total draws", "median time (s)"],
        rows,
        title="Vectorized ensemble Gibbs vs scalar tuple-DAG sampler "
        "(census, 2- and 3-missing tuples, serial executor; median of "
        f"{REPEATS} alternating runs)",
        chart=(
            f"pooling 4 chains/tuple: {pooled:.2f}x over scalar "
            f"(vs {speedup:.2f}x for 1 chain)\n"
            f"host cpus: {os.cpu_count() or 1} (unused: both runs serial)"
        ),
    )
    (RESULTS_DIR / "BENCH_gibbs.json").write_text(
        json.dumps(
            {
                "benchmark": "gibbs_speedup",
                "scale": scale,
                "workload": {
                    "tuples": relation.num_incomplete,
                    "num_samples": num_samples,
                    "burn_in": 20,
                    "seed": 2011,
                },
                "seconds": {k: round(v, 4) for k, v in times.items()},
                "runs": {
                    k: [round(v, 4) for v in t] for k, t in runs.items()
                },
                "speedup": round(speedup, 3),
                "speedup_4_chains": round(pooled, 3),
                "floor_s": round(times[floor_label], 4),
                "floor_workload": {
                    "tuples": len(floor_tuples),
                    "num_samples": FLOOR_SAMPLES,
                    "burn_in": FLOOR_BURN_IN,
                    "runs": FLOOR_RUNS * REPEATS,
                },
                "min_speedup": MIN_SPEEDUP,
                "host_cpus": os.cpu_count() or 1,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized Gibbs kernel only {speedup:.2f}x faster than the "
        f"scalar sampler (required {MIN_SPEEDUP}x)"
    )


@pytest.mark.parametrize("chains", [1, 3])
def test_gibbs_work(scale, monkeypatch, chains):
    """The work behind the speedup, on a warm engine: no engine step, every
    chain's rank steps counted, every tuple's ``num_samples`` samples added
    in the compiled loop, and no trace or rank-ordered uniform copy."""
    if native.rank_sweeps() is None:
        pytest.skip("the compiled sweep loop did not build or load here")
    model, relation = _setup(scale)
    num_samples = (500 if scale == "paper" else 200) + chains - 1
    config = DeriveConfig(
        num_samples=num_samples, burn_in=20, seed=2011, gibbs_chains=chains
    )
    engine = BatchInferenceEngine(model)

    def derive():
        return derive_probabilistic_database(
            relation, config=config, model=model, batch_engine=engine
        )

    derive()  # warms the engine
    calls = {"_engine_step": 0, "trace": 0, "_uniforms": 0}
    for name in calls:
        original = getattr(GibbsEnsemble, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(GibbsEnsemble, name, spy)
    runs = []
    counts = GibbsEnsemble.counts

    def counting(self, *args, **kwargs):
        steps = self.sampler.steps
        out = counts(self, *args, **kwargs)
        runs.append((self, out, self.sampler.steps - steps))
        return out

    monkeypatch.setattr(GibbsEnsemble, "counts", counting)
    computed = engine.groups_computed
    result = derive()
    assert calls == {"_engine_step": 0, "trace": 0, "_uniforms": 0}
    assert engine.groups_computed == computed
    assert runs
    sweeps = -(-num_samples // chains)
    tuples = 0
    for ensemble, histograms, steps in runs:
        assert histograms is not None
        per_sweep = chains * sum(len(t.missing_positions) for t in ensemble.bases)
        assert steps == per_sweep * (20 + sweeps)
        for (_, members, _), histogram in zip(ensemble.patterns, histograms):
            assert histogram.shape[0] == len(members)
            assert (histogram.sum(axis=1) == num_samples).all()
        tuples += len(ensemble.bases)
    assert tuples == len({t.codes.tobytes() for t in relation.incomplete_part()})
    assert result.sampling_stats.total_draws == tuples * chains * (20 + sweeps)


#: ``groups_computed`` of a cold derive of ``test_shard_speedup``'s
#: workload at the quick scale: every signature its single rows and Gibbs
#: chains reach, each computed once, as the per-step route computes them.
COLD_GROUPS = {"quick": 513}


def test_cold_work(scale, monkeypatch):
    """The work of a cold derive of ``test_shard_speedup``'s workload.

    A cold serial derive, and one fork-inherited worker run in-process
    through ``_process_worker_init`` and ``_process_run_shard`` over the
    process plan's shards, each fill every Gibbs ensemble's CPD closure on
    its first miss: no ``_engine_step``, the per-step route's signature
    count, every chain's rank steps counted.  A second derive on the now
    warm engine misses nothing and enumerates no closure."""
    from test_shard_speedup import _setup as shard_setup

    from repro.exec import work
    from repro.exec.executors import ProcessExecutor

    model, relation = shard_setup(scale)
    config = DeriveConfig(
        num_samples=1000 if scale == "quick" else 2000, burn_in=50, seed=2011
    )
    calls = {"_engine_step": 0, "fill": 0}
    for cls, name in (
        (GibbsEnsemble, "_engine_step"), (BatchInferenceEngine, "fill")
    ):
        original = getattr(cls, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    steps = []
    run = GibbsEnsemble._run

    def stepping(self, fused, record, sweeps, row0):
        before = self.sampler.steps
        run(self, fused, record, sweeps, row0)
        steps.append((self.sampler.steps - before, self._per_sweep * sweeps))

    monkeypatch.setattr(GibbsEnsemble, "_run", stepping)

    def closures(computed, expected):
        """Check one derive's work; return the closures it enumerated."""
        assert calls["_engine_step"] == 0
        assert steps and all(taken == per_run for taken, per_run in steps)
        if expected is not None:
            assert computed == expected
        fills = calls["fill"]
        calls.update(_engine_step=0, fill=0)
        steps.clear()
        return fills

    engine = BatchInferenceEngine(model)
    serial = derive_probabilistic_database(
        relation, config=config, model=model, batch_engine=engine
    )
    cold = engine.groups_computed
    assert closures(cold, COLD_GROUPS.get(scale)) > 0

    # One inherited worker, in this process: the process executor plans,
    # fingerprints and sets up the fork-inherited state as it does for a
    # forked pool, and the worker runs every shard of the plan.
    def in_process(self, plan, context, mp_context, initargs, encode):
        assert initargs[0] is None, "not the inherited path"
        work._process_worker_init(*initargs)
        for shard in plan.shards:
            yield work._process_run_shard(encode(shard)).bind(shard)

    monkeypatch.setattr(work, "_WORKER_STATE", None)
    monkeypatch.setattr(ProcessExecutor, "_run_pools", in_process)
    monkeypatch.setattr("threading.active_count", lambda: 1)
    inherited = derive_probabilistic_database(
        relation,
        config=config.replacing(executor="process", workers=2),
        model=model,
    )
    assert closures(work._WORKER_STATE["engine"].groups_computed, cold) > 0
    for a, b in zip(serial.database.blocks, inherited.database.blocks):
        assert a.base == b.base
        assert a.distribution.probs.tobytes() == b.distribution.probs.tobytes()

    derive_probabilistic_database(
        relation, config=config, model=model, batch_engine=engine
    )
    assert closures(engine.groups_computed, cold) == 0
