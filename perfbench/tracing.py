"""Span recording around the program's public entry points.

:class:`Tracer` keeps spans in memory (name, start, end, parent span, op id
and a few counters) and writes them out once.  :func:`install` wraps the
public functions of every layer the benchmark reports on;
:meth:`Installation.undo` puts the originals back, so an untraced operation
runs the program untouched.  The same wrappers run inside the benchmark
process (batch workloads) and inside the ``repro serve`` process
(``serve_launcher.py``).

Recording is gated per thread: a wrapper records only while its thread is
inside :meth:`Tracer.op`, so an HTTP request the client did not mark, or a
job thread serving one, pays a single attribute read.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, id, name, start, parent, op):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs: dict[str, Any] = {}

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span store with a per-thread parent stack and op id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: every BatchInferenceEngine built while recording, plus warm ones
        #: the caller registers; held so a derive's engine can still be read
        #: after the derive has dropped it
        self.engines: list[Any] = []

    # -- per-thread context ------------------------------------------------

    def current_op(self) -> str | None:
        return getattr(self._local, "op", None)

    def recording(self) -> bool:
        return getattr(self._local, "op", None) is not None

    @contextmanager
    def op(self, op_id: str | None):
        """Record spans of this thread under ``op_id`` (None: record nothing)."""
        prev_op = getattr(self._local, "op", None)
        prev_stack = getattr(self._local, "stack", None)
        self._local.op = op_id
        self._local.stack = []
        try:
            yield
        finally:
            self._local.op = prev_op
            self._local.stack = prev_stack

    # -- spans -------------------------------------------------------------

    def start(self, name: str) -> Span:
        stack = self._local.stack
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            stack[-1].id if stack else None,
            self._local.op,
        )
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.recording():
            yield None
            return
        span = self.start(name)
        try:
            yield span
        finally:
            self.finish(span)

    def dump(self) -> list[dict[str, Any]]:
        with self._lock:
            return [s.to_dict() for s in self.spans if s.end is not None]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


# -- wrappers ---------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, original, describe=None, around=None):
    """A recording wrapper; ``describe(args, kwargs, result) -> attrs``."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.recording():
            return original(*args, **kwargs)
        span = tracer.start(name)
        state = around(tracer, span, args, kwargs) if around else None
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.finish(span)
        if describe is not None:
            span.attrs.update(describe(args, kwargs, result))
        if state is not None:
            state(result)
        return result

    return wrapper


def _describe_plan(args, kwargs, plan) -> dict:
    singles = plan.single_shards
    multis = plan.multi_shards
    return {
        "shards": len(plan.shards),
        "signature_groups": sum(s.groups for s in singles),
        "distinct_multi": sum(s.groups for s in multis),
    }


def _describe_single(args, kwargs, blocks) -> dict:
    return {"tuples": len(blocks)}


def _describe_multi(args, kwargs, result) -> dict:
    blocks, stats = result
    return {"tuples": len(blocks), "draws": stats.total_draws}


def _describe_report(report) -> dict:
    busy: dict[str, float] = {}
    single_s = multi_s = 0.0
    single_tuples = 0
    for t in report.timings:
        if t.carried:
            continue
        busy[t.worker] = busy.get(t.worker, 0.0) + t.elapsed
        if t.kind == "single":
            single_s += t.elapsed
            single_tuples += t.tuples
        else:
            multi_s += t.elapsed
    return {
        "executor": report.executor,
        "workers": report.workers,
        "single_s": single_s,
        "single_tuples": single_tuples,
        "multi_s": multi_s,
        "worker_busy": sorted(busy.values(), reverse=True),
        "retries": len(report.failures),
        "pool_restarts": report.pool_restarts,
        "num_tuples": report.num_tuples,
        "carried_tuples": report.carried_tuples,
    }


def _describe_execute(args, kwargs, outcome) -> dict:
    return _describe_report(outcome.report)


def _engine_counts(engines) -> dict[int, tuple[int, int, int, int]]:
    out = {}
    for e in engines:
        info = e.cache_info()
        out[id(e)] = (
            info["hits"],
            info["misses"],
            info["groups_computed"],
            info["evictions"],
        )
    return out


def _around_derive(tracer: Tracer, span: Span, args, kwargs):
    """Read engine counters before and after one derive call."""
    before = _engine_counts(tracer.engines)

    def done(result):
        after = _engine_counts(tracer.engines)
        delta = [0, 0, 0, 0]
        for key, counts in after.items():
            base = before.get(key, (0, 0, 0, 0))
            for i in range(4):
                delta[i] += counts[i] - base[i]
        span.attrs.update(
            {
                "cpd_hits": delta[0],
                "cpd_lookups": delta[0] + delta[1],
                "groups_computed": delta[2],
                "evictions": delta[3],
                "draws": result.sampling_stats.total_draws,
                "blocks": len(result.database.blocks),
            }
        )

    return done


def _wrap_engine_init(tracer: Tracer, original):
    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if tracer.recording():
            with tracer._lock:
                tracer.engines.append(self)

    return __init__


def _wrap_submit(tracer: Tracer, original):
    """Carry the submitting thread's op id onto the job thread."""

    @functools.wraps(original)
    def submit(self, work, *args, **kwargs):
        op = tracer.current_op()
        if op is None:
            return original(self, work, *args, **kwargs)
        submitted = tracer.clock()

        def traced_work(job):
            with tracer.op(op):
                span = tracer.start("jobs.run")
                span.attrs["queue_wait"] = span.start - submitted
                try:
                    return work(job)
                finally:
                    tracer.finish(span)

        return original(self, traced_work, *args, **kwargs)

    return submit


def _wrap_handler(tracer: Tracer, original):
    """Record one HTTP request under the op id the client sent."""

    @functools.wraps(original)
    def handle(self):
        op = self.headers.get("X-Bench-Op")
        if op is None or self.headers.get("X-Bench-Trace") != "1":
            return original(self)
        with tracer.op(op):
            with tracer.span("http.handler"):
                return original(self)

    return handle


#: Every wrapped entry point: (module, owning class or None for a module
#: function, attribute, span name, describe, around).  Functions are patched
#: where their callers look them up (``repro.exec.runtime.plan_shards``,
#: not ``repro.exec.plan.plan_shards``).
TARGETS = [
    ("repro.api.session", None, "learn_mrsl", "learn",
     lambda a, k, r: {"meta_rules": r.model.size()}, None),
    ("repro.exec.runtime", None, "plan_shards", "plan", _describe_plan, None),
    ("repro.exec.work", None, "single_shard_blocks", "kernel.single",
     _describe_single, None),
    ("repro.exec.work", None, "multi_shard_blocks", "kernel.multi",
     _describe_multi, None),
    ("repro.core.engine", "BatchInferenceEngine", "conditional_probs_batch",
     "engine.cpd_batch", None, None),
    ("repro.core.derive", None, "execute_derivation", "execute",
     _describe_execute, None),
    ("repro.core.derive", None, "execute_delta", "execute",
     _describe_execute, None),
    ("repro.core.derive", None, "derive_probabilistic_database", "derive",
     None, _around_derive),
    ("repro.api.session", None, "derive_probabilistic_database", "derive",
     None, _around_derive),
    ("repro.api.service", "InferenceService", "infer", "service.infer", None, None),
    ("repro.api.service", "InferenceService", "query", "service.query", None, None),
    ("repro.api.service", "InferenceService", "update", "service.update", None, None),
    ("repro.api.service", "InferenceService", "derive", "service.derive", None, None),
    ("repro.api.session", "Session", "infer_batch", "session.infer_batch", None, None),
    ("repro.api.session", "Session", "query", "session.query", None, None),
    ("repro.api.session", "Session", "apply_updates", "session.apply_updates",
     None, None),
    ("repro.relational.relation", "Relation", "apply_changeset", "update.apply",
     None, None),
    ("repro.api.query", "SelectionQuery", "run", "query.eval",
     lambda a, k, r: {"results": len(r)}, None),
    ("repro.api.query", "SelfJoinQuery", "run", "query.eval",
     lambda a, k, r: {"results": len(r)}, None),
    ("repro.probdb.engine", "QueryEngine", "scan", "query.scan",
     lambda a, k, r: {"rows": len(r)}, None),
]


class Installation:
    """The wrappers one :func:`install` put in place; :meth:`undo` removes them."""

    def __init__(self):
        self.patches: list[tuple[Any, str, Any]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, http: bool = False) -> Installation:
    """Wrap every traced entry point; ``http`` also wraps the HTTP handler."""
    inst = Installation()
    for module_name, owner_name, attr, name, describe, around in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = owner.__dict__[attr]
        inst.patch(owner, attr, _wrap(tracer, name, original, describe, around))
    engine_cls = importlib.import_module("repro.core.engine").BatchInferenceEngine
    inst.patch(engine_cls, "__init__", _wrap_engine_init(tracer, engine_cls.__init__))
    jobs = importlib.import_module("repro.jobs.manager").JobManager
    inst.patch(jobs, "submit", _wrap_submit(tracer, jobs.submit))
    if http:
        handler = importlib.import_module("repro.api.http")._ServiceHandler
        inst.patch(handler, "do_POST", _wrap_handler(tracer, handler.do_POST))
        inst.patch(handler, "do_GET", _wrap_handler(tracer, handler.do_GET))
    return inst
