"""Durable job journal + job-manager robustness (repro.jobs.store).

Covers the journal's CRUD surface, the carry rebuilt from journaled
shards, in-process resume through ``InferenceService.resume_jobs`` (the
subprocess kill/restart variant lives in test_restart_resume.py), the
worker-loop isolation fix, and event-stream heartbeats.
"""

import threading
import time

import pytest

from repro.api.config import DeriveConfig
from repro.api.service import DeriveRequest, InferenceService
from repro.api.session import Session
from repro.core.learning import learn_mrsl
from repro.exec import execute_derivation
from repro.jobs import Job, JobManager, JobStore
from repro.relational import Relation, Schema
from tests.conftest import FIG1_ROWS

FIG1_SCHEMA = {
    "age": ["20", "30", "40"],
    "edu": ["HS", "BS", "MS"],
    "inc": ["50K", "100K"],
    "nw": ["100K", "500K"],
}
CONFIG = {"support_threshold": 0.1, "num_samples": 30, "burn_in": 5, "seed": 3}
PAYLOAD = {
    "schema": FIG1_SCHEMA,
    "rows": FIG1_ROWS,
    "config": CONFIG,
    "include_blocks": True,
}


@pytest.fixture
def store(tmp_path):
    s = JobStore(tmp_path / "state")
    yield s
    s.close()


def _journal_partial_run(store, job_id, keep_shards=1, payload=PAYLOAD):
    """Journal ``payload``'s derivation interrupted after ``keep_shards``.

    Runs the derivation the request describes out-of-band, records its plan
    seed plus the first ``keep_shards`` completed shards, and leaves the
    job ``running`` — exactly the journal a killed server leaves behind.
    Returns the total number of planned shards.
    """
    store.create_job(job_id, "derive", "derive", payload)
    store.set_state(job_id, "running")
    relation = Relation.from_rows(
        Schema.from_domains(FIG1_SCHEMA), FIG1_ROWS
    )
    config = DeriveConfig(**CONFIG)
    model = learn_mrsl(
        relation,
        support_threshold=config.support_threshold,
        max_itemsets=config.max_itemsets,
    ).model
    recorded = []

    def on_plan(plan):
        store.record_plan(job_id, plan.base_seed)
        recorded.append(len(plan.shards))

    def on_shard(result):
        if len(recorded) - 1 < keep_shards:
            for key, kind, blocks in result.records():
                store.record_shard(job_id, key, kind, blocks)
            recorded.append(result.key)

    execute_derivation(
        list(relation.incomplete_part()), model, config,
        on_plan=on_plan, on_shard=on_shard,
    )
    return recorded[0]


# -- the store itself --------------------------------------------------------


class TestJobStore:
    def test_job_round_trip(self, store):
        store.create_job("j1", "derive", "derive", PAYLOAD)
        record = store.get("j1")
        assert record.state == "queued"
        assert record.request == PAYLOAD
        assert record.base_seed is None
        store.set_state("j1", "failed", error="boom")
        record = store.get("j1")
        assert record.state == "failed"
        assert record.error == "boom"
        assert store.get("missing") is None

    def test_resumable_filters_terminal_states(self, store):
        for job_id, state in (
            ("a", "queued"), ("b", "running"), ("c", "done"), ("d", "failed"),
        ):
            store.create_job(job_id, "derive", "derive", {})
            store.set_state(job_id, state)
        assert [r.id for r in store.load_resumable()] == ["a", "b"]
        assert len(store.load_jobs()) == 4

    def test_shard_journal_round_trip(self, store):
        total = _journal_partial_run(store, "j1", keep_shards=1)
        shards = store.load_shards("j1")
        assert len(shards) == 1 < total
        for key, kind, blocks in shards:
            assert kind in ("single", "multi")
            assert blocks  # real TupleBlocks survived the pickle round trip
            assert blocks[0].base is not None
        store.clear_shards("j1")
        assert store.load_shards("j1") == []

    def test_carry_states(self, store):
        # Nothing journaled: no carry at all.
        store.create_job("j1", "derive", "derive", PAYLOAD)
        assert store.load_carry("j1") is None
        # A journaled plan with no completed shards still pins the seed.
        store.record_plan("j1", 1234)
        carry = store.load_carry("j1")
        assert carry is not None
        assert carry.base_seed == 1234
        # Completed shards ride along.
        _journal_partial_run(store, "j2", keep_shards=1)
        carry = store.load_carry("j2")
        assert carry.base_seed is not None


# -- manager/store integration -----------------------------------------------


class TestJournaledJobs:
    def test_submissions_without_request_are_not_journaled(self, store):
        manager = JobManager(store=store)
        try:
            job = manager.submit(lambda job: 42, label="adhoc")
            assert job.wait(timeout=10)
            assert store.get(job.id) is None
        finally:
            manager.close()

    def test_done_jobs_clear_their_shards(self, store):
        session = Session()
        service = InferenceService(
            session, jobs=JobManager(prefix="derive", store=store)
        )
        try:
            ack = service.derive_async(DeriveRequest.from_dict(PAYLOAD))
            job = service.jobs.get(ack.job_id)
            assert job.wait(timeout=60)
            assert job.state == "done"
            # The terminal journal write happens *after* waiters wake (the
            # in-memory state is authoritative; the journal is best-effort),
            # so poll briefly for the durable side to catch up.
            deadline = time.monotonic() + 10.0
            while store.load_shards(ack.job_id) and time.monotonic() < deadline:
                time.sleep(0.05)
            record = store.get(ack.job_id)
            assert record.state == "done"
            assert record.base_seed is not None
            assert store.load_shards(ack.job_id) == []
        finally:
            service.jobs.close()

    def test_resume_is_bit_identical_and_skips_completed_shards(self, store):
        reference = InferenceService().handle_json("derive", PAYLOAD)
        total = _journal_partial_run(store, "derive-res-1", keep_shards=1)

        service = InferenceService(
            Session(), jobs=JobManager(prefix="derive", store=store)
        )
        try:
            resumed = service.resume_jobs()
            assert resumed == ["derive-res-1"]
            job = service.jobs.get("derive-res-1")
            assert job.wait(timeout=60)
            assert job.state == "done"
            # Bit-identical to the uninterrupted blocking derive.
            result = service.job_result("derive-res-1")
            assert result["blocks"] == reference["blocks"]
            # The journaled shard was carried, not re-executed.
            shard_events = [
                e for e in job.events() if e["event"] == "shard"
            ]
            assert len(shard_events) == total - 1
            assert store.get("derive-res-1").state == "done"
        finally:
            service.jobs.close()

    def test_journaled_null_shorthand_keys_resume_bit_identically(self, store):
        """A row journaled before knobs moved into ``config`` stores the old
        top-level request keys as nulls; it still resumes, bit-identically."""
        reference = InferenceService().handle_json("derive", PAYLOAD)
        legacy = {
            **DeriveRequest.from_dict(PAYLOAD).to_dict(),
            "executor": None,
            "workers": None,
            "gibbs_chains": None,
            "gibbs_vectorized": None,
        }
        total = _journal_partial_run(store, "derive-old-1", payload=legacy)

        service = InferenceService(
            Session(), jobs=JobManager(prefix="derive", store=store)
        )
        try:
            assert service.resume_jobs() == ["derive-old-1"]
            job = service.jobs.get("derive-old-1")
            assert job.wait(timeout=60)
            assert job.state == "done"
            assert service.job_result("derive-old-1") == reference
            shard_events = [e for e in job.events() if e["event"] == "shard"]
            assert len(shard_events) == total - 1
        finally:
            service.jobs.close()

    def test_journaled_shorthand_knob_fails_with_move_message(self, store):
        """A non-null top-level knob would change outputs if ignored: the
        resume fails the job and says where the knob belongs."""
        store.create_job(
            "j1", "derive", "derive", {**PAYLOAD, "gibbs_chains": 2}
        )
        store.set_state("j1", "running")
        service = InferenceService(
            Session(), jobs=JobManager(prefix="derive", store=store)
        )
        try:
            assert service.resume_jobs() == []
            record = store.get("j1")
            assert record.state == "failed"
            assert "move it into 'config'" in record.error
        finally:
            service.jobs.close()

    @pytest.mark.parametrize(
        "key,value", [("gibbs_vectorized", False), ("strategy", "tuple_dag")]
    )
    def test_journaled_removed_knob_fails_resume(self, store, key, value):
        """A journaled config carrying a removed knob is refused on resume
        with the unknown-config-keys error a new request gets."""
        config = {**CONFIG, key: value}
        store.create_job("j1", "derive", "derive", {**PAYLOAD, "config": config})
        store.set_state("j1", "running")
        service = InferenceService(
            Session(), jobs=JobManager(prefix="derive", store=store)
        )
        try:
            assert service.resume_jobs() == []
            record = store.get("j1")
            assert record.state == "failed"
            assert f"unknown config keys [{key!r}]" in record.error
        finally:
            service.jobs.close()

    def test_interrupted_updates_are_marked_failed(self, store):
        store.create_job("u1", "update", "update", {"changes": {"ops": []}})
        store.set_state("u1", "running")
        service = InferenceService(
            Session(), jobs=JobManager(prefix="derive", store=store)
        )
        try:
            assert service.resume_jobs() == []
            record = store.get("u1")
            assert record.state == "failed"
            assert "not resumable" in record.error
        finally:
            service.jobs.close()

    def test_unresumable_request_is_marked_failed(self, store):
        store.create_job("j1", "derive", "derive", {"nonsense": True})
        store.set_state("j1", "running")
        service = InferenceService(
            Session(), jobs=JobManager(prefix="derive", store=store)
        )
        try:
            assert service.resume_jobs() == []
            record = store.get("j1")
            assert record.state == "failed"
            assert "resume failed" in record.error
        finally:
            service.jobs.close()


# -- the worker loop survives machinery failures (regression) ----------------


class TestWorkerLoopIsolation:
    def test_runner_error_fails_job_but_keeps_worker_alive(self):
        manager = JobManager()
        real_run = manager._run_job

        def flaky(job, work):
            if job.label == "boom":
                raise RuntimeError("journal exploded")
            real_run(job, work)

        manager._run_job = flaky
        try:
            doomed = manager.submit(lambda job: 1, label="boom")
            healthy = manager.submit(lambda job: 2, label="ok")
            assert doomed.wait(timeout=10)
            assert doomed.state == "failed"
            assert "job runner error" in doomed.error
            assert "journal exploded" in doomed.error
            # The FIFO is not wedged: the next job still runs to completion.
            assert healthy.wait(timeout=10)
            assert healthy.state == "done"
            assert healthy.result() == 2
        finally:
            manager.close()


# -- event-stream heartbeats -------------------------------------------------


class TestHeartbeats:
    def test_heartbeats_fill_idle_gaps_without_touching_seqs(self):
        job = Job("j1", "derive")

        def produce():
            time.sleep(0.3)
            job._append({"event": "shard", "job_id": job.id})
            time.sleep(0.3)
            job._finish("done", result=42)

        thread = threading.Thread(target=produce)
        thread.start()
        try:
            received = list(
                job.iter_events(timeout=10.0, heartbeat=0.05)
            )
        finally:
            thread.join()
        beats = [e for e in received if e["event"] == "heartbeat"]
        real = [e for e in received if e["event"] != "heartbeat"]
        assert beats  # idle gaps produced keepalives
        # Real sequence numbers stay contiguous from 1.
        assert [e["seq"] for e in real] == [1, 2]
        # A heartbeat echoes the last delivered seq, never a fresh one.
        delivered = 0
        for event in received:
            if event["event"] == "heartbeat":
                assert event["seq"] == delivered
            else:
                delivered = event["seq"]
        # The log itself never contains heartbeats.
        assert all(e["event"] != "heartbeat" for e in job.events())

    def test_no_heartbeat_when_events_flow(self):
        job = Job("j1", "derive")
        job._append({"event": "shard", "job_id": job.id})
        job._finish("done", result=1)
        received = list(job.iter_events(timeout=5.0, heartbeat=30.0))
        assert [e["event"] for e in received] == ["shard", "done"]

    def test_timeout_still_bounds_an_idle_stream(self):
        job = Job("j1", "derive")
        start = time.monotonic()
        received = list(job.iter_events(timeout=0.3, heartbeat=0.1))
        elapsed = time.monotonic() - start
        assert all(e["event"] == "heartbeat" for e in received)
        assert 0.2 <= elapsed < 5.0
