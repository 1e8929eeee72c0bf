"""Kill ``repro serve`` mid-derivation and resume from the durable journal.

The end-to-end durability contract: a server started with ``--state-dir``
that dies mid-derive (SIGTERM or SIGKILL — no shutdown hooks get to run)
resumes the interrupted job on restart, serves the journaled shards from
the carry store instead of re-executing them, and produces a result
bit-identical to an uninterrupted blocking derive.
"""

import json
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api.service import InferenceService
from repro.bayesnet import forward_sample_relation, make_network
from repro.bench.masking import mask_relation
from repro.exec.plan import MULTI_TUPLES_PER_ENSEMBLE
from repro.jobs import JobStore
from repro.relational import Relation

#: A BN7 workload of over 3 x MULTI_TUPLES_PER_ENSEMBLE distinct two-missing
#: rows, so the serial plan has four fused multi shards of about a second
#: each: the kill reliably lands mid-plan.  Segments are journaled and
#: carried over by exact content key, so "no re-execution" is a countable
#: claim: resumed-plan carried_over == journaled segment rows.
CONFIG = {
    "support_threshold": 0.02,
    "num_samples": 1000,
    "burn_in": 15,
    "seed": 13,
}


@pytest.fixture(scope="module")
def bn7_payload():
    rng = np.random.default_rng(21)
    net = make_network("BN7", rng)
    train = forward_sample_relation(net, 2000, rng)
    test = forward_sample_relation(net, 4000, rng)
    masked = mask_relation(test, 2, rng)  # all multi-missing: pure Gibbs shards
    distinct = {t.codes.tobytes() for t in masked}
    assert len(distinct) > 3 * MULTI_TUPLES_PER_ENSEMBLE
    relation = Relation(train.schema, list(train) + list(masked))
    schema = {field.name: list(field.domain) for field in relation.schema}
    rows = [list(t.values()) for t in relation]
    return {
        "schema": schema,
        "rows": rows,
        "config": CONFIG,
        "include_blocks": True,
    }


@pytest.fixture(scope="module")
def reference(bn7_payload):
    """The uninterrupted blocking derive every recovery must reproduce."""
    return InferenceService().handle_json("derive", bn7_payload)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_server(state_dir):
    port = _free_port()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--state-dir", str(state_dir),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    base = f"http://127.0.0.1:{port}/v1"
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server died on startup (rc={proc.returncode})")
        try:
            with urllib.request.urlopen(f"{base}/health", timeout=1.0):
                return proc, base
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError("server did not come up")


def _post(base, path, payload):
    req = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60.0) as resp:
        return json.loads(resp.read())


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}", timeout=60.0) as resp:
        return json.loads(resp.read())


def _wait_for_journaled_shards(state_dir, job_id, minimum, timeout=180.0):
    """Poll the journal (WAL allows concurrent reads) for completed shards."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        store = JobStore(state_dir)
        try:
            count = len(store.load_shards(job_id))
            record = store.get(job_id)
        finally:
            store.close()
        if record is not None and record.state not in ("queued", "running"):
            raise AssertionError(
                f"job reached {record.state!r} before the kill landed; "
                "grow the workload"
            )
        if count >= minimum:
            return count
        time.sleep(0.1)
    raise AssertionError("journaled shards never appeared")


def _wait_for_terminal(base, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = _get(base, f"/jobs/{job_id}")
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.25)
    raise AssertionError(f"job {job_id} never finished")


def _ndjson_events(base, job_id):
    raw = urllib.request.urlopen(
        f"{base}/jobs/{job_id}/events?timeout=2&heartbeat=0", timeout=60.0
    ).read()
    return [json.loads(line) for line in raw.splitlines() if line.strip()]


@pytest.mark.parametrize(
    "sig", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"]
)
def test_killed_server_resumes_bit_identically(
    sig, tmp_path, bn7_payload, reference
):
    state_dir = tmp_path / "state"
    proc, base = _start_server(state_dir)
    try:
        ack = _post(base, "/derive?mode=async", bn7_payload)
        job_id = ack["job_id"]
        assert ack["state"] in ("queued", "running")
        _wait_for_journaled_shards(state_dir, job_id, minimum=2)
        proc.send_signal(sig)
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()

    # The journal must show an unfinished job with work already banked.
    store = JobStore(state_dir)
    try:
        record = store.get(job_id)
        assert record is not None
        assert record.state in ("queued", "running")
        assert record.base_seed is not None
        journaled_keys = {key for key, _, _ in store.load_shards(job_id)}
        journaled = len(journaled_keys)
        assert journaled >= 2
    finally:
        store.close()

    proc, base = _start_server(state_dir)
    try:
        status = _wait_for_terminal(base, job_id)
        assert status["state"] == "done", status

        # Bit-identical to the uninterrupted run: same blocks, same probs.
        result = _get(base, f"/jobs/{job_id}/result")
        assert result["num_blocks"] == reference["num_blocks"]
        assert result["blocks"] == reference["blocks"]

        # No re-execution of journaled work: the resumed plan reports the
        # journaled shards as carried, and exactly the remaining shards
        # produced shard events.
        events = _ndjson_events(base, job_id)
        plans = [e for e in events if e.get("event") == "plan"]
        assert plans, events[:3]
        progress = plans[0]["progress"]
        assert progress["carried_over"] == journaled
        executed = [e for e in events if e.get("event") == "shard"]
        assert len(executed) == progress["shards_total"]
        # ... and none of them was a shard the journal already held.
        assert not journaled_keys & {e["shard"]["key"] for e in executed}
        assert events[-1]["event"] == "done"
    finally:
        proc.terminate()
        proc.wait(timeout=30.0)
