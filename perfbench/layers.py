"""Per-layer metrics from recorded spans.

Every workload reports every metric below.  A layer no timed op exercised
reports 0 (``bn7-single`` never runs Gibbs, the batch workloads never touch
the HTTP layer).  Library-layer values are medians over the traced derive
ops of each op's total; service-layer values are medians over the traced
ops of the named kind.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from stats import median, self_time

OP_KINDS = ("infer", "query", "update", "derive")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("learn.s", "s"),
    ("learn.meta_rules", "count"),
    ("plan.s", "s"),
    ("plan.shards", "count"),
    ("plan.signature_groups", "count"),
    ("plan.distinct_multi", "count"),
    ("single_kernel.s", "s"),
    ("single_kernel.tuples", "count"),
    ("engine.cpd_lookups", "count"),
    ("engine.cpd_hit_rate", "fraction"),
    ("engine.groups_computed", "count"),
    ("engine.evictions", "count"),
    ("multi_kernel.s", "s"),
    ("multi_kernel.cpd_s", "s"),
    ("multi_kernel.cpd_calls", "count"),
    ("multi_kernel.draw_s", "s"),
    ("multi_kernel.draws", "count"),
    ("execute.s", "s"),
    ("execute.self_s", "s"),
    ("executor.busy_frac", "fraction"),
    ("executor.skew", "ratio"),
    ("executor.retries", "count"),
    ("executor.pool_restarts", "count"),
    ("assemble.s", "s"),
    *[(f"http.overhead_ms.{k}", "ms") for k in OP_KINDS],
    *[(f"service.ms.{k}", "ms") for k in OP_KINDS],
    ("session.lock_wait_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("update.apply_ms", "ms"),
    ("update.derive_ms", "ms"),
    ("update.carried_frac", "fraction"),
    ("query.eval_ms", "ms"),
    ("query.rows_per_result", "rows/result"),
    ("trace.overhead_frac", "fraction"),
]

#: Metrics that the process executor computes inside pool workers, where
#: no wrapper in the parent can see them.
WORKER_SIDE = (
    "engine.cpd_lookups",
    "engine.cpd_hit_rate",
    "engine.groups_computed",
    "engine.evictions",
    "multi_kernel.cpd_s",
    "multi_kernel.cpd_calls",
    "multi_kernel.draw_s",
)


@dataclass
class OpRecord:
    """One traced op as the caller saw it."""

    id: str
    kind: str
    latency_s: float


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


class _OpSpans:
    """The spans of one op, indexed by name and by parent."""

    def __init__(self, spans: list[dict]):
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[int, list[dict]] = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def total(self, name: str) -> float:
        return sum(_dur(s) for s in self.by_name.get(name, ()))

    def has(self, name: str) -> bool:
        return bool(self.by_name.get(name))

    def self_time(self, span: dict) -> float:
        kids = [(c["start"], c["end"]) for c in self.children.get(span["id"], ())]
        return self_time(span["start"], span["end"], kids)


def _derive_values(ops: _OpSpans) -> dict[str, float]:
    """Library-layer values of one derive op."""
    out: dict[str, float] = {}
    plans = ops.by_name.get("plan", [])
    if plans:
        out["plan.s"] = ops.total("plan")
        for key in ("shards", "signature_groups", "distinct_multi"):
            out[f"plan.{key}"] = sum(p["attrs"][key] for p in plans)
    executes = ops.by_name.get("execute", [])
    if executes:
        attrs = [e["attrs"] for e in executes]
        exec_s = ops.total("execute")
        busy = [b for a in attrs for b in a["worker_busy"]]
        workers = max(a["workers"] for a in attrs)
        self_s = 0.0
        for e, a in zip(executes, attrs):
            self_s += ops.self_time(e)
            if a["executor"] != "serial" and a["worker_busy"]:
                # Shards ran in pool workers, invisible to the parent's
                # spans: the busiest worker's shard time is the part of the
                # collector's wait that kernel work explains.
                self_s -= a["worker_busy"][0]
        out["execute.s"] = exec_s
        out["execute.self_s"] = self_s
        out["executor.busy_frac"] = sum(busy) / (workers * exec_s) if exec_s else 0.0
        out["executor.skew"] = (max(busy) / (sum(busy) / workers)) if sum(busy) else 0.0
        out["executor.retries"] = sum(a["retries"] for a in attrs)
        out["executor.pool_restarts"] = sum(a["pool_restarts"] for a in attrs)
        single_s = sum(a["single_s"] for a in attrs)
        if single_s:
            out["single_kernel.s"] = single_s
            out["single_kernel.tuples"] = sum(a["single_tuples"] for a in attrs)
        multi_s = sum(a["multi_s"] for a in attrs)
        if multi_s:
            out["multi_kernel.s"] = multi_s
            if ops.has("engine.cpd_batch"):
                cpd_s = ops.total("engine.cpd_batch")
                out["multi_kernel.cpd_s"] = cpd_s
                out["multi_kernel.cpd_calls"] = len(ops.by_name["engine.cpd_batch"])
                out["multi_kernel.draw_s"] = multi_s - cpd_s
    derives = ops.by_name.get("derive", [])
    if derives:
        attrs = [d["attrs"] for d in derives if "cpd_lookups" in d["attrs"]]
        lookups = sum(a["cpd_lookups"] for a in attrs)
        if lookups:
            out["engine.cpd_lookups"] = lookups
            out["engine.cpd_hit_rate"] = sum(a["cpd_hits"] for a in attrs) / lookups
            out["engine.groups_computed"] = sum(a["groups_computed"] for a in attrs)
            out["engine.evictions"] = sum(a["evictions"] for a in attrs)
        draws = sum(a["draws"] for a in attrs)
        if draws:
            out["multi_kernel.draws"] = draws
        out["assemble.s"] = sum(ops.self_time(d) for d in derives)
    return out


def _service_values(kind: str, ops: _OpSpans, latency_s: float) -> dict[str, float]:
    """Service-layer values of one op of the given kind (milliseconds)."""
    out: dict[str, float] = {}
    if ops.has("http.handler"):
        out[f"http.overhead_ms.{kind}"] = 1e3 * (latency_s - ops.total("http.handler"))
    if ops.has(f"service.{kind}"):
        out[f"service.ms.{kind}"] = 1e3 * ops.total(f"service.{kind}")
    session_call = {"infer": "session.infer_batch", "update": "session.apply_updates"}
    if kind in session_call and ops.has(f"service.{kind}") and ops.has(session_call[kind]):
        out["session.lock_wait_ms"] = 1e3 * (
            ops.total(f"service.{kind}") - ops.total(session_call[kind])
        )
    if kind == "derive" and ops.has("jobs.run"):
        runs = ops.by_name["jobs.run"]
        out["jobs.queue_wait_ms"] = 1e3 * sum(r["attrs"]["queue_wait"] for r in runs)
        out["jobs.run_ms"] = 1e3 * ops.total("jobs.run")
    if kind == "update":
        if ops.has("update.apply"):
            out["update.apply_ms"] = 1e3 * ops.total("update.apply")
        if ops.has("derive"):
            out["update.derive_ms"] = 1e3 * ops.total("derive")
        executes = ops.by_name.get("execute", [])
        total = sum(e["attrs"]["num_tuples"] for e in executes)
        if total:
            carried = sum(e["attrs"]["carried_tuples"] for e in executes)
            out["update.carried_frac"] = carried / total
    if kind == "query" and ops.has("query.eval"):
        out["query.eval_ms"] = 1e3 * ops.total("query.eval")
        results = sum(s["attrs"]["results"] for s in ops.by_name["query.eval"])
        rows = sum(s["attrs"]["rows"] for s in ops.by_name.get("query.scan", ()))
        if results:
            out["query.rows_per_result"] = rows / results
    return out


def layer_metrics(
    spans: Iterable[dict],
    ops: Iterable[OpRecord],
    overhead_frac: float,
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, plus the names that could not be measured.

    ``spans`` are span dicts (``Tracer.dump`` form); ``ops`` the traced ops.
    Spans of op ``"setup"`` supply ``learn.*``.
    """
    by_op: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_op[s["op"]].append(s)
    samples: dict[str, list[float]] = defaultdict(list)
    worker_side = False
    for op in ops:
        op_spans = _OpSpans(by_op.get(op.id, []))
        values = _service_values(op.kind, op_spans, op.latency_s)
        if op.kind == "derive":
            values.update(_derive_values(op_spans))
            worker_side |= any(
                e["attrs"]["executor"] != "serial"
                for e in op_spans.by_name.get("execute", ())
            )
        for name, value in values.items():
            samples[name].append(value)
    learns = [s for s in by_op.get("setup", []) if s["name"] == "learn"]
    if learns:
        samples["learn.s"].append(_dur(learns[-1]))
        samples["learn.meta_rules"].append(learns[-1]["attrs"]["meta_rules"])
    samples["trace.overhead_frac"].append(overhead_frac)
    metrics = {name: (median(samples[name]) if samples[name] else 0.0)
               for name, _ in PER_LAYER}
    unmeasured = [name for name in WORKER_SIDE if worker_side and not samples[name]]
    return metrics, unmeasured
