"""Tests of the benchmark's own pure code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from layers import PER_LAYER
from run import END_TO_END, WORKLOADS
from serve import Client, attempt
from stats import (
    REFERENCE_PROBE_S,
    ErrorLedger,
    HostSpeed,
    covered_length,
    max_reportable_percentile,
    percentile,
    self_time,
)

REPO = Path(__file__).resolve().parents[2]


# -- tail percentiles ---------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 0.9) is None
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90.0  # samples 91..100 lie beyond
    assert percentile(list(reversed(values)), 0.9) == 90.0


def test_p50_needs_twenty_samples():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(1, 21)), 0.5) == 10.0


def test_max_reportable_percentile():
    assert max_reportable_percentile(10) == 0.0
    assert max_reportable_percentile(100) == pytest.approx(0.9)
    assert max_reportable_percentile(1000) == pytest.approx(0.99)


# -- host-speed scale --------------------------------------------------------


def test_host_speed_scales_by_the_probes_around_each_interval():
    probes = iter([0.1, 0.05, 0.025])
    speed = HostSpeed(probe=lambda: next(probes))
    # first interval: host ran at probe 0.1 then 0.05 -> mean 0.075
    assert speed.scale() == pytest.approx(REFERENCE_PROBE_S / 0.075)
    # the probe after one interval is the probe before the next
    assert speed.scale() == pytest.approx(REFERENCE_PROBE_S / 0.0375)
    assert speed.probes == [0.1, 0.05, 0.025]


# -- self time ----------------------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert self_time(2.0, 5.0, []) == 3.0


def test_self_time_with_nested_children():
    # child [1, 6] holds a grandchild-like nested interval [2, 3]: the
    # nested one is already covered and must not be subtracted twice.
    assert self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)


def test_self_time_with_overlapping_children():
    # concurrent children [1, 3] and [2, 5] cover [1, 5]; [9, 12] sticks out
    # of the parent and counts only up to its end.
    children = [(1.0, 3.0), (2.0, 5.0), (4.0, 4.5), (9.0, 12.0)]
    assert covered_length(children, 0.0, 10.0) == pytest.approx(5.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(5.0)


def test_children_outside_the_span_cover_nothing():
    assert self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 8.0)]) == pytest.approx(1.0)


# -- digest -------------------------------------------------------------------

_DIGEST_SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import numpy as np
from repro.api.config import DeriveConfig
from repro.bench.masking import mask_relation
from repro.core import derive_probabilistic_database, learn_mrsl
from repro.datasets.census import load_census
from repro.relational import Relation
from stats import database_digest

rng = np.random.default_rng(5)
train, _ = load_census(2000, rng)
model = learn_mrsl(train, support_threshold=0.01).model
rows, _ = load_census(120, rng)
relation = Relation(train.schema, list(mask_relation(rows, (1, 2, 3), rng)))
result = derive_probabilistic_database(
    relation, config=DeriveConfig(num_samples=200, burn_in=10, seed=3), model=model
)
print(database_digest(result.database.blocks))
"""


def test_digest_is_stable_across_hash_seeds():
    script = _DIGEST_SCRIPT.format(
        perfbench=str(REPO / "perfbench"), src=str(REPO / "src")
    )
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert len(digests.pop()) == 64


# -- error accounting ---------------------------------------------------------


def test_error_rate_counts_failures_against_attempts():
    ledger = ErrorLedger()
    assert ledger.record([]) is True
    assert ledger.record(["bad block"]) is False
    ledger.ok()
    ledger.fail("timeout")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.error_rate == 0.5
    assert ledger.reasons == {"bad block": 1, "timeout": 1}


def test_attempt_counts_a_timeout_as_a_failed_op():
    ledger = ErrorLedger()

    def times_out():
        raise TimeoutError("timed out")

    assert attempt(ledger, "infer", times_out) is None
    assert attempt(ledger, "query", lambda: []) is not None
    assert attempt(ledger, "update", lambda: ["update: wrong count"]) is None
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.reasons["infer: TimeoutError: timed out"] == 1


def test_client_request_times_out_and_reconnects():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    accepted = []
    stop = threading.Event()

    def accept_and_stall():
        listener.settimeout(5)
        try:
            accepted.append(listener.accept()[0])  # never answers
        except OSError:
            pass
        stop.wait(5)

    thread = threading.Thread(target=accept_and_stall)
    thread.start()
    ledger = ErrorLedger()
    client = Client(port, timeout=0.2)
    try:
        latency = attempt(ledger, "infer", lambda: client.request("POST", "/v1/infer", b"{}"))
        assert latency is None
        assert ledger.failed == 1 and "TimeoutError" in next(iter(ledger.reasons))
        assert client.conn is None  # dropped, so the next op reconnects
    finally:
        stop.set()
        thread.join(timeout=10)
        for conn in accepted:
            conn.close()
        listener.close()
    assert not thread.is_alive()


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    workloads = json.loads((REPO / "perfbench" / "workloads.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == workloads[w["name"]]["why"]
