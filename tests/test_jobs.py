"""Tests for the async job runtime (repro.jobs) and its service surface.

The acceptance properties:

* an async derive round-trips **bit-identically** to the blocking endpoint
  for the same ``DeriveRequest``;
* progress is monotone and reaches ``shards_done == shards_total``;
* cancellation stops at a shard boundary, reports ``cancelled`` with the
  partial progress, and never registers (or serves) a partial database.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.config import DeriveConfig
from repro.api.http import make_server
from repro.api.service import (
    AsyncDeriveResponse,
    DeriveRequest,
    InferenceService,
    ServiceError,
)
from repro.api.session import Session
from repro.exec.base import DerivationCancelled
from repro.jobs import JobManager, ProgressTracker, UnknownJobError
from repro.jobs.progress import ProgressSnapshot
from tests.conftest import FIG1_ROWS

FIG1_SCHEMA = {
    "age": ["20", "30", "40"],
    "edu": ["HS", "BS", "MS"],
    "inc": ["50K", "100K"],
    "nw": ["100K", "500K"],
}
CONFIG = {"support_threshold": 0.1, "num_samples": 200, "burn_in": 20, "seed": 0}

TERMINAL = ("done", "failed", "cancelled")


def _derive_payload(**overrides):
    payload = {
        "schema": FIG1_SCHEMA,
        "rows": FIG1_ROWS,
        "config": CONFIG,
        "include_blocks": True,
    }
    payload.update(overrides)
    return payload


# -- ProgressTracker -------------------------------------------------------


class _FakePlan:
    def __init__(self, shards, tuples):
        self._shards = shards
        self.num_tuples = tuples

    def __len__(self):
        return self._shards


class _FakeResult:
    def __init__(self, n, elapsed=0.5):
        self._n = n
        self.elapsed = elapsed
        self.key = f"fake-{n}"
        self.kind = "single"
        self.worker = "main"

    def __len__(self):
        return self._n

    def summary_dict(self):
        return {"key": self.key, "kind": self.kind, "tuples": self._n,
                "elapsed": self.elapsed, "worker": self.worker}


class TestProgressTracker:
    def test_lifecycle(self):
        now = [0.0]
        tracker = ProgressTracker(workers=2, clock=lambda: now[0])
        snap = tracker.snapshot()
        assert not snap.planned and snap.fraction_done == 0.0

        tracker.on_plan(_FakePlan(4, 10))
        now[0] = 1.0
        snap = tracker.snapshot()
        assert snap.planned and snap.shards_total == 4
        assert snap.tuples_total == 10
        assert snap.shards_running == 2  # capped by workers
        assert snap.elapsed == pytest.approx(1.0)
        assert snap.eta_seconds is None  # no evidence yet

        tracker.on_shard(_FakeResult(5, elapsed=1.0))
        snap = tracker.snapshot()
        assert snap.shards_done == 1 and snap.tuples_done == 5
        assert snap.fraction_done == pytest.approx(0.5)
        # 0.2s/tuple * 5 remaining tuples / 2 workers
        assert snap.eta_seconds == pytest.approx(0.5)
        assert not snap.finished

        for n in (3, 1, 1):
            tracker.on_shard(_FakeResult(n))
        snap = tracker.snapshot()
        assert snap.finished
        assert snap.shards_done == snap.shards_total == 4
        assert snap.tuples_done == snap.tuples_total == 10
        assert snap.shards_running == 0
        assert snap.eta_seconds == 0.0

    def test_event_fanout_and_broken_observer(self):
        events = []

        def observer(kind, snapshot, *rest):
            events.append(kind)
            raise RuntimeError("broken observer")

        tracker = ProgressTracker(on_event=observer)
        tracker.on_plan(_FakePlan(1, 1))  # must not raise
        tracker.on_shard(_FakeResult(1))
        assert events == ["plan", "shard"]

    def test_tracker_reuse_resets_accumulators(self):
        tracker = ProgressTracker()
        tracker.on_plan(_FakePlan(2, 4))
        tracker.on_shard(_FakeResult(2))
        tracker.on_shard(_FakeResult(2))
        assert tracker.snapshot().finished
        # A second derivation with the same tracker starts from zero.
        tracker.on_plan(_FakePlan(3, 6))
        snap = tracker.snapshot()
        assert snap.shards_done == 0 and snap.tuples_done == 0
        assert snap.fraction_done == 0.0 and not snap.finished
        assert snap.shards_total == 3 and snap.tuples_total == 6

    def test_serial_executor_counts_as_one_worker(self, monkeypatch):
        import os

        from repro.api.config import DeriveConfig

        cpus = {0, 1, 2, 3, 4, 5}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert DeriveConfig(executor="serial", workers=4).parallelism == 1
        assert DeriveConfig(executor="process", workers=4).parallelism == 4
        # A process pool runs at most one worker per host CPU.
        cpus = {0, 1}
        assert DeriveConfig(executor="process", workers=4).parallelism == 2

    def test_snapshot_serializes(self):
        tracker = ProgressTracker()
        tracker.on_plan(_FakePlan(2, 3))
        wire = json.loads(json.dumps(tracker.snapshot().to_dict()))
        assert wire["shards_total"] == 2
        assert wire["tuples_total"] == 3
        assert 0.0 <= wire["fraction_done"] <= 1.0


# -- JobManager ------------------------------------------------------------


class TestJobManager:
    @pytest.fixture
    def manager(self):
        manager = JobManager()
        yield manager
        manager.close()

    def test_submit_runs_and_stores_result(self, manager):
        job = manager.submit(lambda job: {"answer": 42}, label="t")
        assert job.wait(timeout=10)
        assert job.state == "done"
        assert job.result() == {"answer": 42}
        assert manager.get(job.id) is job
        assert job.id in manager.jobs
        events = job.events()
        assert events[-1]["event"] == "done"
        assert events[-1]["seq"] == len(events)

    def test_failure_is_contained(self, manager):
        def work(job):
            raise ValueError("boom")

        job = manager.submit(work)
        assert job.wait(timeout=10)
        assert job.state == "failed"
        assert "ValueError" in job.error and "boom" in job.error
        with pytest.raises(RuntimeError, match="no result"):
            job.result()
        # The worker survives a failed job.
        ok = manager.submit(lambda job: "fine")
        assert ok.wait(timeout=10) and ok.result() == "fine"

    def test_cancel_before_start(self, manager):
        gate = threading.Event()
        ran = []

        def blocker(job):
            gate.wait(10)
            return "done"

        first = manager.submit(blocker)
        second = manager.submit(lambda job: ran.append(True))
        assert second.cancel()
        gate.set()
        assert second.wait(timeout=10)
        assert second.state == "cancelled"
        assert ran == []  # never ran
        assert first.wait(timeout=10) and first.state == "done"

    def test_cancel_after_finish_refused(self, manager):
        job = manager.submit(lambda job: 1)
        assert job.wait(timeout=10)
        assert not job.cancel()
        assert job.state == "done"

    def test_derivation_cancelled_maps_to_cancelled(self, manager):
        def work(job):
            raise DerivationCancelled("stopped at a shard boundary")

        job = manager.submit(work)
        assert job.wait(timeout=10)
        assert job.state == "cancelled"
        assert "shard boundary" in job.error

    def test_unknown_job(self, manager):
        with pytest.raises(UnknownJobError):
            manager.get("nope")

    def test_iter_events_ends_at_terminal(self, manager):
        job = manager.submit(lambda job: "x")
        kinds = [e["event"] for e in job.iter_events(timeout=10)]
        assert kinds[-1] == "done"

    def test_closed_manager_rejects_work(self):
        manager = JobManager()
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.submit(lambda job: 1)

    def test_finished_jobs_are_evicted_beyond_retention(self):
        manager = JobManager(max_finished=2)
        try:
            done = []
            for _ in range(4):
                job = manager.submit(lambda job: 1)
                assert job.wait(timeout=10)
                done.append(job.id)
            # A fifth submission evicts the oldest finished jobs.
            gate = threading.Event()
            running = manager.submit(lambda job: gate.wait(10))
            try:
                assert len(manager.jobs) <= 3  # 2 finished + the live one
                assert running.id in manager.jobs
                assert done[-1] in manager.jobs
                with pytest.raises(UnknownJobError):
                    manager.get(done[0])
            finally:
                gate.set()
        finally:
            manager.close()


# -- Session progress / cancellation ---------------------------------------


class TestSessionProgress:
    def test_progress_callback_is_monotone_and_completes(self, fig1_relation):
        snapshots: list[ProgressSnapshot] = []
        session = Session(DeriveConfig.from_dict(CONFIG))
        session.derive(fig1_relation, progress=snapshots.append)

        assert snapshots and snapshots[0].planned
        done = [s.shards_done for s in snapshots]
        assert done == sorted(done)  # monotone
        tuples = [s.tuples_done for s in snapshots]
        assert tuples == sorted(tuples)
        final = snapshots[-1]
        assert final.finished
        assert final.shards_done == final.shards_total > 0
        assert final.tuples_done == final.tuples_total
        assert final.tuples_total == sum(
            1 for t in fig1_relation if t.num_missing > 0
        )

    def test_progress_rejects_non_callable(self, fig1_relation):
        session = Session(DeriveConfig.from_dict(CONFIG))
        with pytest.raises(TypeError, match="progress"):
            session.derive(fig1_relation, progress="bar")

    def test_cancel_registers_nothing(self, fig1_relation):
        session = Session(DeriveConfig.from_dict(CONFIG))
        with pytest.raises(DerivationCancelled):
            session.derive(fig1_relation, cancel=lambda: True)
        assert session.databases == ()
        # The model was still learned (cancellation hit the derive phase).
        assert session.models == ("default",)

    def test_cancel_mid_run_stops_at_shard_boundary(self, fig1_relation):
        session = Session(DeriveConfig.from_dict(CONFIG))
        seen = []

        def cancel_after_first():
            # seen includes the plan snapshot (shards_done == 0); cancel
            # once a snapshot shows a completed shard.
            return any(done >= 1 for done in seen)

        with pytest.raises(DerivationCancelled) as err:
            session.derive(
                fig1_relation,
                progress=lambda s: seen.append(s.shards_done),
                cancel=cancel_after_first,
            )
        assert session.databases == ()
        report = err.value.report
        assert report is not None
        # Partial: at least one shard completed, but not all of them.
        assert 1 <= len(report.timings) < report.num_shards


# -- Service async endpoints ----------------------------------------------


@pytest.fixture
def service():
    service = InferenceService()
    yield service
    service.jobs.close()


def _wait_done(service, job_id, timeout=30.0):
    job = service.jobs.get(job_id)
    assert job.wait(timeout=timeout), f"job {job_id} never finished"
    return service.job_status(job_id)


class TestServiceAsync:
    def test_async_result_bit_identical_to_blocking(self, service):
        blocking = service.handle_json("derive", _derive_payload())

        ack = AsyncDeriveResponse.from_dict(
            service.handle_json("derive_async", _derive_payload())
        )
        assert ack.state in ("queued", "running")
        status = _wait_done(service, ack.job_id)
        assert status["state"] == "done"
        progress = status["progress"]
        assert progress["shards_done"] == progress["shards_total"] > 0
        assert progress["tuples_done"] == progress["tuples_total"]
        # Terminal progress is frozen: elapsed must not keep ticking.
        time.sleep(0.05)
        assert service.job_status(ack.job_id)["progress"] == progress

        result = service.job_result(ack.job_id)
        assert json.dumps(result) == json.dumps(blocking)  # byte-identical

    def test_async_fails_fast_without_schema_or_model(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle_json(
                "derive_async", {"rows": FIG1_ROWS, "config": CONFIG}
            )
        assert err.value.status == 400
        assert service.jobs.jobs == ()  # nothing was queued

    def test_result_before_done_is_409(self, service):
        gate = threading.Event()
        job = service.jobs.submit(lambda job: gate.wait(10))
        try:
            with pytest.raises(ServiceError) as err:
                service.job_result(job.id)
            assert err.value.status == 409
        finally:
            gate.set()

    def test_result_of_failed_job_is_500(self, service):
        def work(job):
            raise RuntimeError("kaput")

        job = service.jobs.submit(work)
        assert job.wait(timeout=10)
        with pytest.raises(ServiceError) as err:
            service.job_result(job.id)
        assert err.value.status == 500

    def test_unknown_job_is_404(self, service):
        for call in (
            service.job_status,
            service.job_result,
            service.job_cancel,
            service.job_events,
        ):
            with pytest.raises(ServiceError) as err:
                call("nope")
            assert err.value.status == 404

    def test_events_stream_ends_done(self, service):
        ack = service.derive_async(
            DeriveRequest.from_dict(_derive_payload(include_blocks=False))
        )
        events = list(service.job_events(ack.job_id, timeout=30))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "plan"
        assert kinds[-1] == "done"
        shard_events = [e for e in events if e["event"] == "shard"]
        assert shard_events, "no shard events recorded"
        final_progress = events[-1]["progress"]
        assert (
            final_progress["shards_done"]
            == final_progress["shards_total"]
            == len(shard_events)
        )
        # seq resumes: asking after the last event returns nothing new
        assert service.jobs.get(ack.job_id).events(after=events[-1]["seq"]) == []

    def test_health_lists_jobs(self, service):
        ack = service.derive_async(
            DeriveRequest.from_dict(_derive_payload(include_blocks=False))
        )
        _wait_done(service, ack.job_id)
        assert ack.job_id in service.handle_json("health", {})["jobs"]


class TestServiceCancellation:
    """A cancelled job stops at a shard boundary, keeps its partial
    progress, and never exposes a partial database."""

    def test_cancel_mid_derive(self, service):
        cancelled_at = []

        def cancel_on_first_shard(kind, snapshot, *rest):
            if kind == "shard" and not cancelled_at:
                cancelled_at.append(snapshot.shards_done)
                service.job_cancel(job.id)

        # Hold the worker behind a gate so the shard-event hook is installed
        # while the job is still queued — the cancel then lands
        # deterministically after the first completed shard.
        gate = threading.Event()
        service.jobs.submit(lambda job: gate.wait(10))
        ack = service.derive_async(
            DeriveRequest.from_dict(_derive_payload(include_blocks=False))
        )
        job = service.jobs.get(ack.job_id)
        record_event = job.tracker._on_event

        def hook(kind, snapshot, *rest):
            record_event(kind, snapshot, *rest)
            cancel_on_first_shard(kind, snapshot, *rest)

        job.tracker._on_event = hook
        gate.set()
        assert job.wait(timeout=30)

        status = service.job_status(job.id)
        assert status["state"] == "cancelled"
        progress = status["progress"]
        # Partial progress: something finished, but not everything.
        assert 0 < progress["shards_done"] < progress["shards_total"]
        # The partial per-shard report of what did complete rides along.
        assert len(status["exec_report"]["timings"]) == progress["shards_done"]
        # No partial database ever lands: neither registered...
        assert service.session.databases == ()
        # ...nor served.
        with pytest.raises(ServiceError) as err:
            service.job_result(job.id)
        assert err.value.status == 409

    def test_cancel_queued_job_never_runs(self, service):
        gate = threading.Event()
        service.jobs.submit(lambda job: gate.wait(10))
        ack = service.derive_async(
            DeriveRequest.from_dict(_derive_payload(include_blocks=False))
        )
        out = service.job_cancel(ack.job_id)
        assert out["cancel_requested"]
        gate.set()
        status = _wait_done(service, ack.job_id)
        assert status["state"] == "cancelled"
        assert status["progress"]["shards_done"] == 0
        assert service.session.databases == ()


# -- HTTP front-end --------------------------------------------------------


@pytest.fixture
def http_service():
    service = InferenceService()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        service.jobs.close()
        thread.join(timeout=5)


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return response.status, json.loads(response.read())


class TestHttpJobs:
    def test_async_round_trip_bit_identical(self, http_service):
        service, port = http_service
        _, blocking = _post(port, "/v1/derive", _derive_payload())
        _, ack = _post(port, "/v1/derive?mode=async", _derive_payload())
        assert set(ack) == {"job_id", "state"}

        deadline = time.monotonic() + 30
        while True:
            _, status = _get(port, f"/v1/jobs/{ack['job_id']}")
            if status["state"] in TERMINAL:
                break
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)

        assert status["state"] == "done"
        progress = status["progress"]
        assert progress["shards_done"] == progress["shards_total"] > 0
        _, result = _get(port, f"/v1/jobs/{ack['job_id']}/result")
        assert json.dumps(result) == json.dumps(blocking)

    def test_async_result_bytes_equal_blocking_body(self, http_service):
        """The finished job keeps its encoded JSON, served verbatim."""
        service, port = http_service
        body = json.dumps(_derive_payload()).encode("utf-8")
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/derive",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            blocking = response.read()
        _, ack = _post(port, "/v1/derive?mode=async", _derive_payload())
        job = service.jobs.get(ack["job_id"])
        assert job.wait(timeout=30) and job.state == "done"
        assert isinstance(job.result(), bytes)  # no dict tree retained
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/jobs/{job.id}/result", timeout=30
        ) as response:
            assert response.read() == blocking
        assert service.job_result(job.id) == json.loads(blocking)

    def test_events_stream_is_chunked_ndjson(self, http_service):
        _, port = http_service
        _, ack = _post(
            port, "/v1/derive?mode=async", _derive_payload(include_blocks=False)
        )
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/jobs/{ack['job_id']}/events?timeout=30",
            timeout=30,
        ) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in response.read().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "plan" and kinds[-1] == "done"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_cancel_endpoint(self, http_service):
        service, port = http_service
        gate = threading.Event()
        service.jobs.submit(lambda job: gate.wait(10))  # occupy the worker
        try:
            _, ack = _post(
                port,
                "/v1/derive?mode=async",
                _derive_payload(include_blocks=False),
            )
            _, out = _post(port, f"/v1/jobs/{ack['job_id']}/cancel", {})
            assert out["cancel_requested"]
        finally:
            gate.set()
        job = service.jobs.get(ack["job_id"])
        assert job.wait(timeout=10)
        assert job.state == "cancelled"

    def test_unknown_job_is_404(self, http_service):
        _, port = http_service
        for path in (
            "/v1/jobs/nope",
            "/v1/jobs/nope/result",
            "/v1/jobs/nope/events",
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(port, path)
            assert err.value.code == 404
            assert "error" in json.loads(err.value.read())
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(port, "/v1/jobs/nope/cancel", {})
        assert err.value.code == 404

    def test_unknown_job_action_is_404(self, http_service):
        _, port = http_service
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(port, "/v1/jobs/x/bogus")
        assert err.value.code == 404

    def test_keep_alive_survives_error_with_unread_body(self, http_service):
        """A 404'd POST must drain its body, or the unread bytes desync the
        next request on the same keep-alive connection."""
        import http.client

        _, port = http_service
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/jobs/x/bogus",
                body=json.dumps({"payload": "x" * 256}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            # The same connection must still parse a follow-up request.
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()

    def test_bad_events_query_params_are_400(self, http_service):
        service, port = http_service
        job = service.jobs.submit(lambda job: 1)
        assert job.wait(timeout=10)
        for bad in ("after=zzz", "timeout=zzz", "timeout=nan"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(port, f"/v1/jobs/{job.id}/events?{bad}")
            assert err.value.code == 400

    def test_unknown_derive_mode_is_400(self, http_service):
        """A typo'd mode must not silently fall back to a blocking derive."""
        _, port = http_service
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(port, "/v1/derive?mode=asinc", _derive_payload())
        assert err.value.code == 400
        assert "mode" in json.loads(err.value.read())["error"]["message"]

    def test_chunked_request_body_is_rejected(self, http_service):
        """No Content-Length means nothing to drain: refuse with 411 and
        close, rather than desync the connection on unread chunks."""
        import http.client

        _, port = http_service
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/query",
                body=iter([b'{"query": {"type": "selection"}}']),
                headers={"Content-Type": "application/json"},
                encode_chunked=True,
            )
            response = conn.getresponse()
            assert response.status == 411
            assert "error" in json.loads(response.read())
        finally:
            conn.close()

    def test_events_timeout_is_clamped_not_crashed(self, http_service):
        """timeout=inf (or beyond the platform's wait limit) must be clamped
        to the ceiling, yielding a well-formed stream — not an OverflowError
        after the chunked headers are already out."""
        service, port = http_service
        job = service.jobs.submit(lambda job: 1)
        assert job.wait(timeout=10)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/jobs/{job.id}/events?timeout=inf",
            timeout=30,
        ) as response:
            events = [json.loads(line) for line in response.read().splitlines()]
        assert events and events[-1]["event"] == "done"
