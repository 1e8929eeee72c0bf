"""Pluggable shard executors: serial and process pool.

Both run the same shard kernels (:mod:`repro.exec.work`) over the same
plan (:mod:`repro.exec.plan`) and stream :class:`~repro.exec.base.ShardResult`
objects as shards finish, so they are interchangeable:

* :class:`SerialExecutor` — in-process, in plan order; the default.  With a
  warm engine passed in (the session path) it is bit-identical to the
  pre-executor code.
* :class:`ProcessExecutor` — a process pool with one warm engine per
  worker, validated against the parent's compiled-engine metadata.  A
  forked pool inherits the parent's model, engine and shards, so a shard
  travels as its key; a forkserver or spawn pool rebuilds the model from
  its persisted JSON, and a shard travels as a
  :class:`~repro.exec.work.ShardTask` code matrix.  Live engines, tuples
  and blocks are never pickled: a shard comes back as a
  :class:`~repro.exec.work.ShardOutput` of distributions and is rebound
  to the parent's own tuples before anything downstream sees it.

Because multi-missing segments carry deterministic per-segment seeds and
single-missing shards are RNG-free, both executors produce bit-identical
results for any worker count.

Failure is a first-class state here, not an abort: every executor runs each
shard under the context's :class:`~repro.exec.base.RetryPolicy` (exponential
jitterless backoff, recorded as :class:`~repro.exec.base.ShardFailure` rows),
and the process executor additionally survives *infrastructure* failure —
a crashed worker breaks the pool, the pool is rebuilt, and only the shards
that were in flight are requeued.  A shard past its deadline is treated as a
hung worker: the pool is killed and the shard requeued.  When the pool keeps
dying, ``failure_policy`` decides: ``"strict"`` raises
:class:`~repro.exec.base.WorkerPoolError` with the partial report attached,
``"degrade"`` falls back process→serial and keeps deriving — the
deterministic seeds make the degraded result bit-identical.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Generator, Iterator, Mapping, TYPE_CHECKING

from ..core.engine import BatchInferenceEngine
from .base import (
    DEFAULT_FAILURE_POLICY,
    DEFAULT_WORKERS,
    RetryPolicy,
    Shard,
    ShardExecutionError,
    ShardFailure,
    ShardPlan,
    ShardResult,
    WorkerPoolError,
    effective_workers,
    host_cpus,
    validate_workers,
)
from .faults import FaultPlan, ShardFault, bind_faults
from .work import (
    InheritedState,
    ShardKnobs,
    ShardTask,
    _process_run_shard,
    _process_worker_init,
    run_shard,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mrsl import MRSLModel

__all__ = [
    "ExecContext",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "host_cpus",
]


@dataclass
class ExecContext:
    """Everything an executor needs beyond the plan itself.

    ``batch_engine`` is the derive's one engine: the caller's warm engine
    (the session path), whose CPD cache keeps carrying over, or a new one.
    The lattices are the model's own (``model.compiled``), compiled once
    per model: the planner, the serial kernels, the process handshake and
    forked workers all read them.

    The failure knobs ride here too: ``retry`` and ``failure_policy`` come
    from the config, ``faults`` is an optional injected
    :class:`~repro.exec.faults.FaultPlan`, and the ``failures`` /
    ``degradations`` / ``pool_restarts`` accumulators are filled by the
    executors as the run unfolds — the collector copies them into the
    :class:`~repro.exec.base.ExecReport` (even when the run ends in an
    exception).
    """

    model: "MRSLModel"
    knobs: ShardKnobs
    batch_engine: BatchInferenceEngine
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_policy: str = DEFAULT_FAILURE_POLICY
    faults: FaultPlan | None = None
    failures: list[ShardFailure] = field(default_factory=list)
    degradations: list[str] = field(default_factory=list)
    pool_restarts: int = 0

    def record_failure(self, failure: ShardFailure) -> None:
        self.failures.append(failure)


def _retrying(
    shard: Shard,
    context: ExecContext,
    faults: Mapping[tuple[str, int], ShardFault],
    engine: BatchInferenceEngine | None,
) -> ShardResult:
    """Run one shard's attempt loop in the calling process.

    Every attempt re-runs the same content-keyed seed through the same
    kernel, so a retried shard is bit-identical to a first-try shard.
    Failed attempts are recorded; an exhausted budget raises
    :class:`~repro.exec.base.ShardExecutionError`.
    """
    retry = context.retry
    attempt = 0
    while True:
        attempt += 1
        fault = faults.get((shard.key, attempt))
        start = time.perf_counter()
        try:
            result = run_shard(
                shard,
                context.model,
                context.knobs,
                batch_engine=engine,
                fault=fault,
                deadline=retry.deadline,
            )
        except Exception as exc:
            exhausted = attempt >= retry.max_attempts
            backoff = 0.0 if exhausted else retry.backoff(attempt)
            failure = ShardFailure(
                key=shard.key,
                kind=shard.kind,
                attempt=attempt,
                error=f"{type(exc).__name__}: {exc}",
                elapsed=time.perf_counter() - start,
                backoff=backoff,
                fatal=exhausted,
            )
            context.record_failure(failure)
            if exhausted:
                raise ShardExecutionError(
                    f"shard {shard.key} failed after {attempt} attempts: "
                    f"{failure.error}",
                    failure=failure,
                ) from exc
            time.sleep(backoff)
        else:
            if attempt > 1:
                result = replace(result, attempts=attempt)
            return result


class Executor:
    """Common interface: stream shard results for a plan."""

    name = "abstract"

    def __init__(self, workers: int = DEFAULT_WORKERS):
        self.workers = validate_workers(workers)

    @property
    def effective_workers(self) -> int:
        """The workers this executor plans for and runs
        (:func:`~repro.exec.base.effective_workers`)."""
        return effective_workers(self.name, self.workers)

    def run(
        self, plan: ShardPlan, context: ExecContext
    ) -> Iterator[ShardResult]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


def _remaining_plan(plan: ShardPlan, shards: "list[Shard]") -> ShardPlan:
    """A sub-plan over ``shards``, keeping the original base seed."""
    return ShardPlan(
        shards=tuple(shards),
        num_tuples=sum(len(s) for s in shards),
        base_seed=plan.base_seed,
    )


class SerialExecutor(Executor):
    """Run shards one after another in the calling process (the default)."""

    name = "serial"

    def run(
        self, plan: ShardPlan, context: ExecContext
    ) -> Iterator[ShardResult]:
        faults = bind_faults(context.faults, plan)
        for shard in plan.shards:
            yield _retrying(shard, context, faults, context.batch_engine)


class _PoolDied(Exception):
    """Internal: the process pool broke or a shard blew its deadline.

    ``reason`` labels the failure; ``culprits`` names the shard keys the
    failure is attributed to (the hung shard for a deadline, every
    in-flight shard for a crash — which worker died is unknowable).
    """

    def __init__(self, reason: str, culprits: "list[str]"):
        super().__init__(reason)
        self.reason = reason
        self.culprits = culprits


class ProcessExecutor(Executor):
    """Run shards on a process pool with one warm engine per worker.

    The pool runs ``min(workers, host_cpus())`` workers (see
    :attr:`effective_workers`); the plan is cut for the same count, and
    output never depends on it.  How the workers get their state depends
    on the start method:

    * A single-threaded parent forks, and the workers inherit an
      :class:`~repro.exec.work.InheritedState`: the parent's model, its
      engine and the plan's shards by key.
      Nothing is serialized for the model, and a submission is the shard
      key.
    * A multithreaded parent (e.g. the HTTP server's job thread) uses
      forkserver or spawn.  The initializer ships
      :func:`~repro.core.persistence.model_to_dict` output to every worker,
      which rebuilds the model, and each submission encodes the shard as a
      :class:`~repro.exec.work.ShardTask`.

    Either way each worker validates its compiled structures against the
    parent's metadata, live engines are never pickled, and each result is
    rebound to the parent's tuples by
    :meth:`~repro.exec.work.ShardOutput.bind`.  Shards are submitted multi
    first, so the long Gibbs shards start before the single shards fill
    the gaps; blocks land by index, so the order never changes a result.
    Once the last shard is submitted the pool winds down: its workers exit
    and are joined while the parent binds and assembles the last results,
    and the run joins what is left before it returns.

    Fault domains: at most ``effective_workers`` shards are in flight at a
    time, each stamped with its submission time.  A broken pool
    (:class:`~concurrent.futures.process.BrokenProcessPool` — a worker was
    killed, hard-exited, or died in its initializer) or a shard exceeding
    the retry deadline kills and rebuilds the pool (a forked pool re-forks
    with the same inherited state), requeueing only the in-flight shards;
    completed results are never recomputed.  Each requeue consumes one
    attempt from the shard's retry budget.  After ``max_pool_deaths``
    rebuilds the run degrades to the serial executor
    (``failure_policy="degrade"``) or raises
    :class:`~repro.exec.base.WorkerPoolError` (``"strict"``).
    """

    name = "process"

    #: pool rebuilds tolerated before degrading (or raising)
    max_pool_deaths = 2

    #: seconds between deadline scans when no future completes
    poll_interval = 0.25

    def run(
        self, plan: ShardPlan, context: ExecContext
    ) -> Iterator[ShardResult]:
        if not plan.shards:
            return
        from ..core.persistence import compiled_metadata, model_to_dict

        # The handshake's fingerprint compiles and hashes each lattice the
        # model has not yet, which a forked worker then inherits.
        metadata = compiled_metadata(context.model)
        # Fork keeps worker startup cheap on POSIX, but forking a
        # multithreaded parent (e.g. a derive request inside the threaded
        # HTTP server) can inherit locks held by threads that do not exist
        # in the child; prefer forkserver/spawn there.
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods and threading.active_count() == 1:
            method = "fork"
        elif "forkserver" in methods:
            method = "forkserver"
        else:
            method = "spawn"
        if method == "fork":
            # Fork hands the initializer its arguments unpickled, so the
            # workers get the parent's live state itself.
            encode: Callable[[Shard], Any] = attrgetter("key")
            state = InheritedState(
                model=context.model,
                engine=context.batch_engine,
                shards={s.key: s for s in plan.shards},
            )
            initargs = (None, context.knobs, metadata, state)
        else:
            encode = ShardTask.encode
            initargs = (model_to_dict(context.model), context.knobs, metadata)
        yield from self._run_pools(
            plan, context, multiprocessing.get_context(method), initargs, encode
        )

    def _run_pools(
        self,
        plan: ShardPlan,
        context: ExecContext,
        mp_context: Any,
        initargs: tuple,
        encode: Callable[[Shard], Any],
    ) -> Iterator[ShardResult]:
        """Run ``plan`` on pools started with ``initargs``, rebuilding a
        dead pool and degrading or raising once too many have died."""
        faults = bind_faults(context.faults, plan)
        retry = context.retry
        queue: "deque[Shard]" = deque(
            sorted(plan.shards, key=lambda s: s.kind != "multi")
        )
        attempts: dict[str, int] = {s.key: 0 for s in plan.shards}
        pool_deaths = 0

        while queue:
            pool = ProcessPoolExecutor(
                max_workers=self.effective_workers,
                mp_context=mp_context,
                initializer=_process_worker_init,
                initargs=initargs,
            )
            # The pool forgets its workers once wound down (see _drain);
            # killing a hung one then still needs them.
            processes = pool._processes
            inflight: "dict[Future, tuple[Shard, float]]" = {}
            try:
                manager = yield from self._drain(
                    pool, queue, inflight, attempts, faults, context, encode
                )
                # Join the wound-down pool's manager thread, which joins
                # the workers and the queue feeder thread: they would
                # otherwise outlive the run and make the next run's parent
                # look multithreaded (no fork).  A shard that failed in
                # band after the wind-down is queued again and runs on a
                # new pool, which is no pool death.
                manager.join()
            except _PoolDied as died:
                pool_deaths += 1
                context.pool_restarts += 1
                self._kill_pool(pool, processes)
                # Requeue the in-flight shards — completed work stands.
                # The failure is charged to the culprits' retry budgets;
                # innocent bystanders get their attempt back.
                culprits = set(died.culprits)
                for shard, started in inflight.values():
                    if shard.key in culprits:
                        exhausted = attempts[shard.key] >= retry.max_attempts
                        failure = ShardFailure(
                            key=shard.key,
                            kind=shard.kind,
                            attempt=attempts[shard.key],
                            error=died.reason,
                            elapsed=time.monotonic() - started,
                            backoff=0.0 if exhausted else retry.backoff(
                                attempts[shard.key]
                            ),
                            fatal=exhausted and context.failure_policy != "degrade",
                        )
                        context.record_failure(failure)
                        if exhausted and context.failure_policy != "degrade":
                            raise ShardExecutionError(
                                f"shard {shard.key} failed after "
                                f"{attempts[shard.key]} attempts: {died.reason}",
                                failure=failure,
                            ) from died
                    else:
                        attempts[shard.key] -= 1
                    queue.append(shard)
                if pool_deaths > self.max_pool_deaths:
                    if context.failure_policy != "degrade":
                        raise WorkerPoolError(
                            f"process pool died {pool_deaths} times "
                            f"({died.reason}); {len(queue)} shards unfinished"
                        ) from died
                    context.degradations.append("process->serial")
                    yield from SerialExecutor().run(
                        _remaining_plan(plan, list(queue)), context
                    )
                    return
            finally:
                pool.shutdown(wait=False, cancel_futures=True)

    def _drain(
        self,
        pool: ProcessPoolExecutor,
        queue: "deque[Shard]",
        inflight: "dict[Future, tuple[Shard, float]]",
        attempts: dict[str, int],
        faults: Mapping[tuple[str, int], ShardFault],
        context: ExecContext,
        encode: Callable[[Shard], Any],
    ) -> Generator[ShardResult, None, threading.Thread]:
        """Pump shards through one pool until it is empty — or dies.

        ``encode`` turns a shard into its submission: its key on an
        inherited pool, a :class:`~repro.exec.work.ShardTask` otherwise, so
        a requeued shard is encoded again from the parent's
        :class:`~repro.exec.base.Shard`.  Submission is windowed to
        ``effective_workers`` so a submitted future is
        (to a close approximation) a *running* future, which is what makes
        the per-shard deadline meaningful.

        Once the queue is empty the pool is wound down
        (``shutdown(wait=False)``): its workers exit as they finish, and
        its manager thread joins them while the parent binds and assembles
        the last results.  A shard that fails in band after that stays
        queued for the caller's next pool.  Returns the manager thread, for
        the caller to join.  Raises :class:`_PoolDied` on a broken pool or
        an overdue shard; the in-flight map is left intact for the caller's
        requeue logic.
        """
        retry = context.retry
        window = self.effective_workers
        manager: threading.Thread | None = None
        while inflight or (queue and manager is None):
            while queue and manager is None and len(inflight) < window:
                shard = queue.popleft()
                attempts[shard.key] += 1
                fault = faults.get((shard.key, attempts[shard.key]))
                try:
                    future = pool.submit(
                        _process_run_shard,
                        encode(shard),
                        fault,
                        retry.deadline,
                    )
                except BrokenProcessPool as exc:
                    queue.appendleft(shard)
                    attempts[shard.key] -= 1
                    raise _PoolDied(
                        f"worker pool broke: {exc}",
                        [s.key for s, _ in inflight.values()],
                    ) from exc
                inflight[future] = (shard, time.monotonic())
            if not queue and manager is None:
                # Shutdown drops the pool's handle on its manager thread.
                manager = pool._executor_manager_thread
                pool.shutdown(wait=False)
            timeout = self._wait_timeout(inflight, retry.deadline)
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                overdue = self._overdue(inflight, retry.deadline)
                if overdue:
                    raise _PoolDied(
                        f"shard deadline ({retry.deadline:.3f}s) exceeded",
                        overdue,
                    )
                continue
            for future in done:
                shard, started = inflight.pop(future)
                try:
                    result = future.result().bind(shard)
                except BrokenProcessPool as exc:
                    # The whole pool is gone; every in-flight shard (this
                    # one included) is a suspect.
                    inflight[future] = (shard, started)
                    raise _PoolDied(
                        f"worker crashed: {exc}",
                        [s.key for s, _ in inflight.values()],
                    ) from exc
                except Exception as exc:
                    # In-band failure shipped back from the worker, or a
                    # result that does not bind to the shard: charge the
                    # retry budget, back off, requeue.
                    exhausted = attempts[shard.key] >= retry.max_attempts
                    backoff = (
                        0.0 if exhausted else retry.backoff(attempts[shard.key])
                    )
                    failure = ShardFailure(
                        key=shard.key,
                        kind=shard.kind,
                        attempt=attempts[shard.key],
                        error=f"{type(exc).__name__}: {exc}",
                        elapsed=time.monotonic() - started,
                        backoff=backoff,
                        fatal=exhausted,
                    )
                    context.record_failure(failure)
                    if exhausted:
                        raise ShardExecutionError(
                            f"shard {shard.key} failed after "
                            f"{attempts[shard.key]} attempts: {failure.error}",
                            failure=failure,
                        ) from exc
                    time.sleep(backoff)
                    queue.append(shard)
                else:
                    if attempts[shard.key] > 1:
                        result = replace(result, attempts=attempts[shard.key])
                    yield result
        return manager

    def _wait_timeout(
        self,
        inflight: "dict[Future, tuple[Shard, float]]",
        deadline: float | None,
    ) -> float | None:
        """How long to block in ``wait``: forever without a deadline,
        otherwise until the earliest in-flight shard would be overdue."""
        if deadline is None or not inflight:
            return None
        now = time.monotonic()
        soonest = min(
            deadline - (now - started) for _, started in inflight.values()
        )
        return max(min(soonest, self.poll_interval), 0.01)

    @staticmethod
    def _overdue(
        inflight: "dict[Future, tuple[Shard, float]]",
        deadline: float | None,
    ) -> "list[str]":
        if deadline is None:
            return []
        now = time.monotonic()
        return [
            shard.key
            for shard, started in inflight.values()
            if now - started >= deadline
        ]

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor, processes: Mapping) -> None:
        """Terminate a pool's workers (``processes``, its pid -> process
        map) without waiting on hung ones."""
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # already dead / reaped
                pass
        pool.shutdown(wait=False, cancel_futures=True)


#: executor name -> class, the registry behind every ``executor=`` knob.
EXECUTOR_CLASSES = {
    SerialExecutor.name: SerialExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def get_executor(
    executor: "Executor | str", workers: int = DEFAULT_WORKERS
) -> Executor:
    """Resolve an executor instance from a name (or pass one through)."""
    if isinstance(executor, Executor):
        return executor
    cls = EXECUTOR_CLASSES.get(executor)
    if cls is None:
        raise ValueError(
            f"executor must be one of {tuple(EXECUTOR_CLASSES)}, "
            f"got {executor!r}"
        )
    return cls(workers)
