"""Background jobs for long-running derivations: submit, observe, cancel.

The HTTP service must not block a connection for the lifetime of a large
derivation.  :class:`JobManager` runs submitted work on background worker
threads (one by default, so async derivations against a shared
:class:`~repro.api.session.Session` serialize instead of racing its warm
engines), assigns every submission a job id, and tracks its lifecycle::

    queued ──▶ running ──▶ done
       │          ├──────▶ failed
       └──────────┴──────▶ cancelled

Each :class:`Job` owns a :class:`~repro.jobs.progress.ProgressTracker`
(plugged into the derivation runtime's plan/shard hooks by the work
callable), an append-only event log (one event per completed shard plus a
terminal event — the payload of the service's chunked ``/events`` stream),
and a cooperative cancellation flag.  Cancellation is *cooperative*: the
flag is polled by the runtime collector at shard boundaries, the derivation
raises :class:`~repro.exec.base.DerivationCancelled`, and the job lands in
``cancelled`` with its partial progress preserved — a cancelled job never
produces a result, partial or otherwise.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..exec.base import DerivationCancelled
from .progress import ProgressTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import JobStore

__all__ = ["JOB_STATES", "Job", "JobManager", "UnknownJobError"]

#: Every state a job can report; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job cannot leave.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class UnknownJobError(LookupError):
    """No job with the requested id (the service's 404)."""


class Job:
    """One submitted derivation: state, progress, events, result.

    Instances are created by :meth:`JobManager.submit`; all public
    accessors are thread-safe (the worker thread mutates, HTTP handler
    threads read).
    """

    def __init__(
        self,
        job_id: str,
        label: str,
        workers: int = 1,
        store: "JobStore | None" = None,
    ):
        self.id = job_id
        self.label = label
        self.created_at = time.time()
        #: durable journal (when the manager has one); all journal writes
        #: are best-effort — durability degrades, derivations never die
        self.store = store
        self.tracker = ProgressTracker(
            workers=workers, on_event=self._tracker_event
        )
        self._cond = threading.Condition()
        self._state = "queued"
        self._cancel = threading.Event()
        self._events: list[dict[str, Any]] = []
        self._result: Any = None
        self._error: str | None = None
        #: tracker snapshot frozen at the terminal transition
        self._final_progress: dict[str, Any] | None = None
        #: partial ExecReport.to_dict() of a cancelled derivation
        self.exec_report: dict[str, Any] | None = None

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    @property
    def error(self) -> str | None:
        with self._cond:
            return self._error

    def should_stop(self) -> bool:
        """The cooperative-cancellation hook handed to the runtime."""
        return self._cancel.is_set()

    def cancel(self) -> bool:
        """Request cancellation; returns False if already finished.

        A queued job is cancelled before it ever starts; a running one
        stops at the next shard boundary.
        """
        with self._cond:
            if self._state in TERMINAL_STATES:
                return False
        self._cancel.set()
        return True

    def result(self) -> Any:
        """The work's return value; raises unless the job is ``done``."""
        with self._cond:
            if self._state != "done":
                raise RuntimeError(
                    f"job {self.id} has no result (state: {self._state})"
                )
            return self._result

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._state in TERMINAL_STATES, timeout=timeout
            )

    def status_dict(self) -> dict[str, Any]:
        """The JSON status payload (``GET /v1/jobs/{id}``).

        A finished job reports the progress snapshot frozen at its terminal
        transition, so ``elapsed`` stops ticking once the job is over.
        """
        with self._cond:
            state, error, events = self._state, self._error, len(self._events)
            progress = self._final_progress
        if progress is None:
            progress = self.tracker.snapshot().to_dict()
        status = {
            "job_id": self.id,
            "label": self.label,
            "state": state,
            "created_at": self.created_at,
            "cancel_requested": self.cancel_requested,
            "result_ready": state == "done",
            "error": error,
            "events": events,
            "progress": progress,
        }
        if self.exec_report is not None:
            status["exec_report"] = self.exec_report
        return status

    # -- events ------------------------------------------------------------

    def events(self, after: int = 0) -> list[dict[str, Any]]:
        """Events with ``seq > after`` recorded so far (non-blocking).

        Events are appended with contiguous ``seq`` values starting at 1,
        so ``seq > after`` is exactly the slice from index ``after`` on.
        """
        with self._cond:
            return list(self._events[max(0, after):])

    def iter_events(
        self,
        after: int = 0,
        timeout: float | None = None,
        heartbeat: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Yield events as they land, ending after the terminal event.

        ``timeout`` bounds each wait for the *next* event; on expiry the
        iterator stops (the service uses this to bound a streaming
        response's lifetime).  ``heartbeat`` (seconds) yields a synthetic
        ``{"event": "heartbeat"}`` payload whenever the stream has been
        idle that long — keepalive for proxies and clients watching a slow
        shard.  Heartbeats are never appended to the event log and carry
        the last *delivered* ``seq``, so they cannot perturb real event
        sequence numbers; the per-event ``timeout`` clock still governs
        stream lifetime independently.
        """
        seq = max(0, after)
        waited = 0.0
        idle = 0.0
        while True:
            slice_ = timeout
            if heartbeat is not None:
                remaining_beat = heartbeat - idle
                slice_ = (
                    remaining_beat
                    if timeout is None
                    else min(timeout - waited, remaining_beat)
                )
                slice_ = max(slice_, 0.0)
            began = time.monotonic()
            with self._cond:
                ok = self._cond.wait_for(
                    lambda: len(self._events) > seq
                    or self._state in TERMINAL_STATES,
                    timeout=slice_,
                )
                fresh = list(self._events[seq:]) if ok else []
                terminal = ok and self._state in TERMINAL_STATES
            elapsed = time.monotonic() - began
            if not ok:
                waited += elapsed
                idle += elapsed
                if timeout is not None and waited >= timeout:
                    return
                if heartbeat is not None and idle >= heartbeat:
                    idle = 0.0
                    yield {"event": "heartbeat", "job_id": self.id, "seq": seq}
                continue
            waited = 0.0
            idle = 0.0
            for event in fresh:
                seq = event["seq"]
                yield event
            if terminal and (not fresh or fresh[-1]["event"] in TERMINAL_STATES):
                return

    def _tracker_event(self, kind: str, snapshot, source=None) -> None:
        payload: dict[str, Any] = {
            "event": kind,
            "job_id": self.id,
            "progress": snapshot.to_dict(),
        }
        if kind == "shard" and source is not None:
            payload["shard"] = source.summary_dict()
        self._journal(kind, source)
        self._append(payload)

    def _journal(self, kind: str, source) -> None:
        """Mirror plan/shard events into the durable store (best-effort)."""
        if self.store is None or source is None:
            return
        try:
            if kind == "plan":
                self.store.record_plan(
                    self.id, getattr(source, "base_seed", None)
                )
            elif kind == "shard":
                # One row per segment: a resumed plan may fuse segments
                # differently, but it carries each one by its own key.
                for key, shard_kind, blocks in source.records():
                    self.store.record_shard(self.id, key, shard_kind, blocks)
        except Exception:  # a full disk must not kill the derivation
            pass

    def _append(self, payload: dict[str, Any]) -> None:
        with self._cond:
            self._append_locked(payload)

    def _append_locked(self, payload: dict[str, Any]) -> None:
        payload["seq"] = len(self._events) + 1
        self._events.append(payload)
        self._cond.notify_all()

    # -- worker-side transitions -------------------------------------------

    def _begin(self) -> None:
        with self._cond:
            self._state = "running"
            self._cond.notify_all()
        self._journal_state("running")

    def _finish(
        self, state: str, result: Any = None, error: str | None = None
    ) -> None:
        assert state in TERMINAL_STATES, state
        progress = self.tracker.snapshot().to_dict()
        with self._cond:
            self._state = state
            self._result = result
            self._error = error
            self._final_progress = progress
            # State flip and terminal event land atomically, so an event
            # stream can never see a finished job without its final event.
            self._append_locked(
                {
                    "event": state,
                    "job_id": self.id,
                    "error": error,
                    "progress": progress,
                }
            )
        self._journal_state(state, error=error)

    def _journal_state(self, state: str, error: str | None = None) -> None:
        if self.store is None:
            return
        try:
            self.store.set_state(self.id, state, error=error)
            if state == "done":
                # Finished work will never be resumed; drop its shards.
                self.store.clear_shards(self.id)
        except Exception:  # journal loss degrades durability, nothing else
            pass

    def __repr__(self) -> str:
        return f"Job({self.id!r}, state={self.state!r})"


class JobManager:
    """Run submitted work on background workers, one job at a time each.

    ``max_finished`` bounds how many *terminal* jobs (and their results /
    event logs) the registry retains; the oldest finished jobs are evicted
    on submission and their ids become unknown (404 from the service).
    Queued and running jobs are never evicted.
    """

    def __init__(
        self,
        workers: int = 1,
        prefix: str = "job",
        max_finished: int = 64,
        store: "JobStore | None" = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_finished < 1:
            raise ValueError(f"max_finished must be positive, got {max_finished}")
        self._prefix = prefix
        self.store = store
        self._worker_count = workers
        self._max_finished = max_finished
        self._jobs: dict[str, Job] = {}
        self._queue: (
            "queue.SimpleQueue[tuple[Job, Callable[[Job], Any]] | None]"
        ) = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self._closed = False

    # -- submission --------------------------------------------------------

    def submit(
        self,
        work: Callable[[Job], Any],
        label: str = "derive",
        workers: int = 1,
        endpoint: str | None = None,
        request: dict[str, Any] | None = None,
        job_id: str | None = None,
    ) -> Job:
        """Queue ``work`` (called with its :class:`Job`) on a worker thread.

        ``workers`` is the *derivation's* executor pool size, used only to
        size the progress tracker's running-shards estimate.  When the
        manager has a durable store and the caller supplies ``endpoint`` +
        ``request`` (the JSON submission), the job is journaled so a killed
        server can resume it on restart.  ``job_id`` re-adopts a journaled
        id during that resume instead of minting a fresh one.
        """
        resumed = job_id is not None
        if job_id is None:
            job_id = (
                f"{self._prefix}-{next(self._counter)}-{uuid.uuid4().hex[:8]}"
            )
        journal = self.store is not None and (resumed or request is not None)
        job = Job(
            job_id,
            label=label,
            workers=workers,
            store=self.store if journal else None,
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is closed")
            self._jobs[job_id] = job
            self._evict_finished()
            self._ensure_workers()
        if journal:
            try:
                if resumed:
                    self.store.set_state(job_id, "queued")
                else:
                    self.store.create_job(
                        job_id, label, endpoint or label, request or {}
                    )
            except Exception:  # durability is best-effort
                pass
        self._queue.put((job, work))
        return job

    def _evict_finished(self) -> None:
        """Drop the oldest terminal jobs beyond the retention bound."""
        finished = [j for j in self._jobs.values() if j.finished]
        for stale in finished[: max(0, len(finished) - self._max_finished)]:
            del self._jobs[stale.id]

    def _ensure_workers(self) -> None:
        while len(self._threads) < self._worker_count:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-jobs-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job, work = item
            try:
                self._run_job(job, work)
            except Exception as exc:  # noqa: BLE001 - keep the worker alive
                # _run_job isolates failures *inside* the work callable; an
                # exception here means the job machinery itself broke (a
                # journal write, a state transition).  Mark the job failed
                # if it still can be, and keep serving the queue — a wedged
                # FIFO would silently strand every later submission.
                try:
                    if not job.finished:
                        job._finish(
                            "failed",
                            error=f"job runner error: "
                            f"{type(exc).__name__}: {exc}",
                        )
                except Exception:
                    pass

    def _run_job(self, job: Job, work: Callable[[Job], Any]) -> None:
        """Run one job through its lifecycle, isolating work failures."""
        if job.cancel_requested:
            job._finish("cancelled", error="cancelled before start")
            return
        job._begin()
        try:
            result = work(job)
        except DerivationCancelled as exc:
            # Preserve the partial per-shard report: what did complete,
            # with timings, before the boundary check stopped the run.
            if exc.report is not None:
                job.exec_report = exc.report.to_dict()
            job._finish("cancelled", error=str(exc))
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            report = getattr(exc, "report", None)
            if report is not None and hasattr(report, "to_dict"):
                # Executor failures (shard exhaustion, pool death) attach
                # their partial ExecReport; surface it like cancellation.
                job.exec_report = report.to_dict()
            job._finish("failed", error=f"{type(exc).__name__}: {exc}")
        else:
            job._finish("done", result=result)

    # -- lookup ------------------------------------------------------------

    @property
    def jobs(self) -> tuple[str, ...]:
        """Known job ids, oldest first."""
        with self._lock:
            return tuple(self._jobs)

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def cancel(self, job_id: str) -> Job:
        """Request cancellation of a job by id (idempotent)."""
        job = self.get(job_id)
        job.cancel()
        return job

    # -- shutdown ----------------------------------------------------------

    def close(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting work and (optionally) join the worker threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        if wait:
            for thread in threads:
                thread.join(timeout=timeout)

    def __repr__(self) -> str:
        return f"JobManager({len(self.jobs)} jobs, workers={self._worker_count})"
