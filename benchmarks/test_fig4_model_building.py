"""Fig. 4: building the MRSL model.

(a) model-building time vs training set size (support fixed at 0.02);
(b) model-building time vs support (training size fixed);
(c) model size vs support (training size fixed).

The paper averages over 10 networks with 4-6 attributes; the quick scale
uses 4 representatives of that set and smaller training sizes.  The shapes
to reproduce: (a) linear growth, (b)/(c) super-linear decay with support,
model size dropping particularly sharply.

Fig. 4(a) compares learning times of a few milliseconds each, too short
for one run per size: it sweeps the sizes once to warm up, then
``REPEATS`` more times, alternating the size order so host drift hits all
sizes alike, and checks the shape on the per-size medians.
"""

import statistics

import numpy as np
import pytest

from repro.bench import run_learning_experiment

#: The paper's Fig. 4 pool: networks with 4-6 attrs, card 2-8.
PAPER_NETWORKS = [
    "BN1", "BN2", "BN3", "BN4", "BN5",
    "BN8", "BN9", "BN10", "BN11", "BN12",
]
QUICK_NETWORKS = ["BN1", "BN4", "BN8", "BN10"]

#: Alternating-order sweeps of Fig. 4(a) after the warm-up sweep; its shape
#: checks use the per-size medians.
REPEATS = 15


@pytest.fixture(scope="module")
def networks(scale):
    return PAPER_NETWORKS if scale == "paper" else QUICK_NETWORKS


def _sweep_training(networks, config, sizes):
    def measure(size):
        cfg = config.scaled(training_size=size, support_threshold=0.02)
        runs = [run_learning_experiment(n, cfg) for n in networks]
        return (
            float(np.mean([r.learn_time_sec for r in runs])),
            float(np.mean([r.model_size for r in runs])),
        )

    for size in sizes:  # warm-up: the first sizes would otherwise run cold
        measure(size)
    times = {size: [] for size in sizes}
    model_sizes = {}
    for i in range(REPEATS):
        for size in sizes if i % 2 == 0 else sizes[::-1]:
            seconds, model_sizes[size] = measure(size)
            times[size].append(seconds)
    return [(size, statistics.median(times[size]), model_sizes[size]) for size in sizes]


def _sweep_support(networks, config, supports, training_size):
    rows = []
    for theta in supports:
        cfg = config.scaled(
            training_size=training_size, support_threshold=theta
        )
        runs = [run_learning_experiment(n, cfg) for n in networks]
        rows.append(
            (
                theta,
                float(np.mean([r.learn_time_sec for r in runs])),
                float(np.mean([r.model_size for r in runs])),
            )
        )
    return rows


def test_fig4a_time_vs_training_size(benchmark, report, networks, base_config, scale):
    sizes = (
        [1000, 10_000, 20_000, 50_000, 100_000]
        if scale == "paper"
        else [500, 1000, 2000, 4000]
    )
    rows = benchmark.pedantic(
        _sweep_training, args=(networks, base_config, sizes),
        rounds=1, iterations=1,
    )
    report(
        "fig4a",
        ["training size", "median build time (s)", "model size"],
        [(s, t, m) for s, t, m in rows],
        title="Fig 4(a): model building time vs training set size (support=0.02; "
        f"median of {REPEATS} alternating sweeps)",
    )
    times = [t for _, t, _ in rows]
    # Shape: time grows with training size...
    assert times[-1] > times[0]
    # ...roughly linearly: doubling data should not blow time up
    # super-quadratically (generous bound for timer noise).
    ratio = times[-1] / max(times[0], 1e-9)
    size_ratio = sizes[-1] / sizes[0]
    assert ratio < size_ratio ** 2 * 5
    # Model size stays approximately constant with training size (paper).
    sizes_col = [m for _, _, m in rows]
    assert max(sizes_col) < 4 * max(min(sizes_col), 1.0)


def test_fig4b_time_vs_support(benchmark, report, networks, base_config, scale):
    supports = [0.001, 0.01, 0.02, 0.05, 0.1]
    training = 10_000 if scale == "paper" else 2000
    rows = benchmark.pedantic(
        _sweep_support, args=(networks, base_config, supports, training),
        rounds=1, iterations=1,
    )
    report(
        "fig4b",
        ["support", "build time (s)", "model size"],
        rows,
        title=f"Fig 4(b): model building time vs support (training={training})",
    )
    times = [t for _, t, _ in rows]
    # Shape: build time decreases (super-linearly) with increasing support.
    assert times[0] > times[-1]


def test_fig4c_model_size_vs_support(benchmark, report, networks, base_config, scale):
    supports = [0.001, 0.01, 0.02, 0.05, 0.1]
    training = 10_000 if scale == "paper" else 2000
    rows = benchmark.pedantic(
        _sweep_support, args=(networks, base_config, supports, training),
        rounds=1, iterations=1,
    )
    report(
        "fig4c",
        ["support", "build time (s)", "model size"],
        rows,
        title=f"Fig 4(c): model size vs support (training={training})",
    )
    sizes = [m for _, _, m in rows]
    # Shape: model size drops monotonically and sharply with support.
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] > 2 * sizes[-1]
