"""Vectorized multi-chain Gibbs kernel vs the scalar sampler (fig. 11 shape).

A multi-missing census workload — the Algorithm 3 regime where every
missing attribute of every tuple needs one conditional CPD and one draw
per sweep — derived twice with identical settings: once on the scalar
tuple-DAG sampler (``gibbs_vectorized=False``, the pre-kernel code path)
and once on the vectorized lock-step ensemble.  Both runs are serial and
single-threaded, so the speedup measures vectorization alone, not
parallelism; the bar therefore applies on any host.

Each variant runs ``REPEATS`` times, alternating the order of the variants
so host drift hits all alike, and the bench asserts the median vectorized
run is at least ``MIN_SPEEDUP`` times faster than the median scalar run
(override via ``REPRO_MIN_GIBBS_SPEEDUP``).  It records the table to
``benchmarks/results/gibbs_speedup.txt``, and writes the machine-readable
``benchmarks/results/BENCH_gibbs.json``.  A ``gibbs_chains=4`` row rides
along to show multi-chain pooling lands at essentially the same wall-clock
as one chain (the mixing knob is free); it carries no speedup gate.

Samples differ between the kernels (different, equally admissible draws of
the same randomized procedure — see docs/execution.md); the scalar-vs-
vectorized equivalence suite lives in ``tests/test_gibbs_vectorized.py``.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.api.config import DeriveConfig
from repro.bench.masking import mask_relation
from repro.core import derive_probabilistic_database, learn_mrsl
from repro.datasets.census import load_census
from repro.relational import Relation

RESULTS_DIR = Path(__file__).parent / "results"

#: Required vectorized-over-scalar speedup.  Both runs are serial, so this
#: is a pure single-thread kernel comparison and holds on shared runners.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_GIBBS_SPEEDUP", "4.0"))

#: Runs per variant; the gate compares their medians.
REPEATS = 3


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

    variants = (
        ("scalar", base.replacing(gibbs_vectorized=False)),
        ("vectorized", base),
        ("vectorized x4 chains", base.replacing(gibbs_chains=4)),
    )
    runs = {label: [] for label, _ in variants}
    results = {}
    for i in range(REPEATS):
        for label, cfg in variants if i % 2 == 0 else variants[::-1]:
            start = time.perf_counter()
            results[label] = derive_probabilistic_database(
                relation, config=cfg, model=model
            )
            runs[label].append(time.perf_counter() - start)
    times = {label: statistics.median(t) for label, t in runs.items()}
    rows = [
        (
            label,
            results[label].exec_report.num_shards,
            len(results[label].database.blocks),
            results[label].sampling_stats.total_draws,
            round(times[label], 3),
        )
        for label, _ in variants
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
