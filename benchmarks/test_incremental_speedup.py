"""Incremental (delta) re-derive vs full re-derive after a small ChangeSet.

The mutable-database workload: a census relation whose incomplete part is
dominated by multi-missing (Gibbs) tuples takes a ChangeSet touching a
handful of *single-missing* rows.  Lineage-driven invalidation marks only
those rows dirty — every Gibbs shard's content key is unchanged, so all the
expensive sampling work carries over verbatim and the delta path re-runs a
few RNG-free compiled-engine shards.

The bench derives the updated relation twice — ``update_policy="full"``
(re-derive everything) and ``"delta"`` — from the same previous result,
asserts the two databases are bit-identical (the equivalence invariant,
unconditional), and asserts the delta path is at least ``MIN_SPEEDUP``
times faster (override via ``REPRO_MIN_INCR_SPEEDUP``).  Each policy runs
``REPEATS`` times, alternating so host drift hits both alike, and the gate
compares the medians: one ~30 ms delta run is too noisy to gate on.
Results go to
``benchmarks/results/incremental_speedup.txt`` and the machine-readable
``benchmarks/results/BENCH_incremental.json``.

The favorable shape is the point: updates that touch multi-missing tuples
dirty their whole 128-tuple Gibbs batch (see docs/updates.md), so a
ChangeSet rewriting the entire incomplete part would see no win.  The gate
measures the common case — small updates against a large derived database.
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
from repro.relational import ChangeSet, Relation, update

RESULTS_DIR = Path(__file__).parent / "results"

#: Required full-over-delta speedup.  The delta run executes only a few
#: compiled-engine shards while the full run re-samples every Gibbs batch,
#: so the bar holds on shared runners (no parallelism involved: both serial).
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_INCR_SPEEDUP", "5.0"))

#: Rows the ChangeSet touches.
NUM_UPDATES = 10

#: Alternating full/delta runs per policy; the gate uses their medians.
REPEATS = 5


def _setup(scale):
    training = 20_000 if scale == "paper" else 2500
    singles = 120 if scale == "paper" else 60
    doubles = 600 if scale == "paper" else 280
    triples = 300 if scale == "paper" else 140
    support = 0.001 if scale == "paper" else 0.005
    rng = np.random.default_rng(2011)
    train, _ = load_census(training, rng)
    model = learn_mrsl(train, support_threshold=support).model
    one_part, _ = load_census(singles, rng)
    two_part, _ = load_census(doubles, rng)
    three_part, _ = load_census(triples, rng)
    incomplete = (
        list(mask_relation(one_part, 1, rng))
        + list(mask_relation(two_part, 2, rng))
        + list(mask_relation(three_part, 3, rng))
    )
    relation = Relation(train.schema, incomplete)
    return model, relation


def _single_touching_changeset(relation, k=NUM_UPDATES):
    """Update one known cell on each of ``k`` single-missing rows."""
    ops = []
    for i, t in enumerate(relation):
        if t.num_missing != 1:
            continue
        attr = next(
            a.name for p, a in enumerate(t.schema)
            if p not in t.missing_positions
        )
        other = next(v for v in t.schema[attr].domain if v != t.value(attr))
        ops.append(update(i, {attr: other}, source="bench"))
        if len(ops) == k:
            break
    assert len(ops) == k, "workload has too few single-missing rows"
    return ChangeSet(ops)


def test_incremental_speedup(report, scale):
    model, relation = _setup(scale)
    # Enough Gibbs work per carried batch that the full re-derive, not the
    # sample-free delta planning, dominates the ratio.
    num_samples = 1000 if scale == "paper" else 500
    config = DeriveConfig(num_samples=num_samples, burn_in=20, seed=2011)

    baseline = derive_probabilistic_database(relation, config=config, model=model)

    updated = relation.copy()
    outcome = updated.apply_changeset(_single_touching_changeset(relation))
    assert len(outcome.updated) == NUM_UPDATES

    runs = {"full": [], "delta": []}
    results = {}
    for _ in range(REPEATS):
        for policy in ("full", "delta"):
            start = time.perf_counter()
            result = derive_probabilistic_database(
                updated,
                config=config.replacing(update_policy=policy),
                previous=baseline,
            )
            runs[policy].append(time.perf_counter() - start)
            results[policy] = result
            # The invariant, unconditional: every delta and full re-derive
            # equals the first full one, bit for bit.
            full_db, db = results["full"].database, result.database
            assert len(full_db.blocks) == len(db.blocks)
            for a, b in zip(full_db.blocks, db.blocks):
                assert a.base == b.base
                assert a.distribution.outcomes == b.distribution.outcomes
                assert (a.distribution.probs == b.distribution.probs).all()
    times = {policy: statistics.median(t) for policy, t in runs.items()}

    delta_report = results["delta"].exec_report
    speedup = times["full"] / max(times["delta"], 1e-9)
    rows = [
        (
            policy,
            results[policy].exec_report.num_shards,
            results[policy].exec_report.carried_over,
            results[policy].exec_report.carried_tuples,
            round(times[policy], 3),
        )
        for policy in ("full", "delta")
    ] + [("speedup", "-", "-", "-", round(speedup, 2))]

    report(
        "incremental_speedup",
        [
            "policy", "executed shards", "carried shards", "carried tuples",
            "median time (s)",
        ],
        rows,
        title=f"Incremental re-derive after a {NUM_UPDATES}-row ChangeSet "
        "(census, single-missing rows touched, Gibbs batches carried; "
        f"median of {REPEATS} alternating runs)",
        chart=(
            f"workload: {relation.num_incomplete} incomplete tuples, "
            f"{NUM_UPDATES} touched; delta executed "
            f"{delta_report.num_shards} shards, carried "
            f"{delta_report.carried_over}"
        ),
    )
    (RESULTS_DIR / "BENCH_incremental.json").write_text(
        json.dumps(
            {
                "benchmark": "incremental_speedup",
                "scale": scale,
                "workload": {
                    "tuples": relation.num_incomplete,
                    "touched": NUM_UPDATES,
                    "num_samples": num_samples,
                    "burn_in": 20,
                    "seed": 2011,
                },
                "seconds": {k: round(v, 4) for k, v in times.items()},
                "runs": {
                    k: [round(v, 4) for v in t] for k, t in runs.items()
                },
                "speedup": round(speedup, 3),
                "executed_shards": delta_report.num_shards,
                "carried_over": delta_report.carried_over,
                "carried_tuples": delta_report.carried_tuples,
                "min_speedup": MIN_SPEEDUP,
                "host_cpus": os.cpu_count() or 1,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    # Every Gibbs batch must have carried: the ChangeSet touched singles only.
    assert delta_report.carried_over > 0
    assert delta_report.carried_tuples == relation.num_incomplete - NUM_UPDATES
    assert speedup >= MIN_SPEEDUP, (
        f"incremental re-derive only {speedup:.2f}x faster than the full "
        f"re-derive (required {MIN_SPEEDUP}x)"
    )
