"""The batch workloads: one timed op is one ``derive_probabilistic_database``.

``census-gibbs``   serial, 8,000 census rows missing 2-3 attributes, warm
                   engine reused across ops (the ``Session`` path).
``bn7-single``     serial, 20,000 Table I ``BN7`` rows missing 1 attribute,
                   no warm engine (the library default and ``repro derive``).
``census-process`` ``ProcessExecutor`` with one worker per CPU, 8,000
                   single- plus 4,000 multi-missing census rows; every op
                   starts its own pool.

The model is an existing one: its training rows come from a fixed seed, so
its size never changes; the relation each op derives comes from the
workload seed.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from layers import OpRecord, layer_metrics
from stats import ErrorLedger, HostSpeed, block_problems, database_digest, median
from tracing import Tracer, install

#: Seed of the training rows, fixed so every run derives with the same model.
TRAIN_SEED = 2011

#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Fixed tuples ``bn7-single`` checks bit for bit against the naive engine.
NAIVE_CHECK_TUPLES = 200


@dataclass
class Inputs:
    train: object
    support: float
    relation: object


def _census_train():
    from repro.datasets.census import load_census

    return load_census(20_000, np.random.default_rng(TRAIN_SEED))[0]


def census_gibbs_inputs(seed: int) -> Inputs:
    from repro.bench.masking import mask_relation
    from repro.datasets.census import load_census

    train = _census_train()
    rng = np.random.default_rng(seed)
    rows, _ = load_census(8000, rng)
    return Inputs(train, 0.001, mask_relation(rows, (2, 3), rng))


def census_process_inputs(seed: int) -> Inputs:
    from repro.bench.masking import mask_relation
    from repro.datasets.census import load_census
    from repro.relational import Relation

    train = _census_train()
    rng = np.random.default_rng(seed)
    singles, _ = load_census(8000, rng)
    multis, _ = load_census(4000, rng)
    incomplete = list(mask_relation(singles, 1, rng)) + list(
        mask_relation(multis, (2, 3), rng)
    )
    return Inputs(train, 0.001, Relation(train.schema, incomplete))


def bn7_inputs(seed: int) -> Inputs:
    from repro.bayesnet import forward_sample_relation, make_network
    from repro.bench.masking import mask_relation

    train_rng = np.random.default_rng(TRAIN_SEED)
    net = make_network("BN7", train_rng)
    train = forward_sample_relation(net, 20_000, train_rng)
    rng = np.random.default_rng(seed)
    rows = forward_sample_relation(net, 20_000, rng)
    return Inputs(train, 0.005, mask_relation(rows, 1, rng))


@dataclass
class BatchWorkload:
    name: str
    inputs: Callable[[int], Inputs]
    executor: str
    #: reuse one warm BatchInferenceEngine across ops, as Session does
    warm_engine: bool


def _workers() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    "census-gibbs": BatchWorkload("census-gibbs", census_gibbs_inputs, "serial", True),
    "bn7-single": BatchWorkload("bn7-single", bn7_inputs, "serial", False),
    "census-process": BatchWorkload(
        "census-process", census_process_inputs, "process", False
    ),
}


def _config(workload: BatchWorkload, seed: int):
    from repro.api.config import DeriveConfig

    return DeriveConfig(
        num_samples=1000,
        burn_in=50,
        seed=seed,
        executor=workload.executor,
        workers=_workers() if workload.executor == "process" else 1,
    )


def _facts(inputs: Inputs, model, result) -> dict:
    report = result.exec_report
    return {
        "rows": len(inputs.relation),
        "distinct_tuples": len({t.codes.tobytes() for t in inputs.relation}),
        "signature_groups": sum(t.groups for t in report.timings if t.kind == "single"),
        "shards": report.num_shards,
        "model_size": model.size(),
    }


class BatchRun:
    """Set up, check and time one batch workload."""

    def __init__(self, workload: BatchWorkload, seed: int, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.config = _config(workload, seed)
        self.ledger = ErrorLedger()
        self.setup_problems: list[str] = []
        self.notes: dict = {}

    def _derive(self):
        from repro.core import derive as derive_module

        return derive_module.derive_probabilistic_database(
            self.inputs.relation,
            config=self.config,
            model=self.model,
            batch_engine=self.engine,
        )

    def _setup_once(self) -> float:
        """Input generation, Algorithm 1 and the warm-up op; returns seconds."""
        from repro.core.engine import BatchInferenceEngine
        from repro.core.learning import learn_mrsl

        start = time.perf_counter()
        self.inputs = self.workload.inputs(self.seed)
        tracer = self.tracer
        with (tracer.op("setup") if tracer else nullcontext()):
            with (tracer.span("learn") if tracer else nullcontext()) as span:
                self.model = learn_mrsl(
                    self.inputs.train, support_threshold=self.inputs.support
                ).model
                if span is not None:
                    span.attrs["meta_rules"] = self.model.size()
        self.engine = None
        if self.workload.warm_engine:
            self.engine = BatchInferenceEngine(
                self.model, self.config.v_choice, self.config.v_scheme
            )
            if tracer:
                tracer.engines.append(self.engine)
        self.warmup = self._derive()
        return time.perf_counter() - start

    def setup(self, reps: int) -> tuple[float, float]:
        """Set up ``reps`` times; returns the median (raw, host-scaled) seconds."""
        speed = HostSpeed()
        raw, scaled = [], []
        for _ in range(reps):
            raw.append(self._setup_once())
            scaled.append(raw[-1] * speed.scale())
        self.incomplete = len(self.warmup.database.blocks)
        expected = sum(1 for _ in self.inputs.relation.incomplete_part())
        self.setup_problems += block_problems(self.warmup.database.blocks, expected)
        self.digest = database_digest(self.warmup.database.blocks)
        self.facts = _facts(self.inputs, self.model, self.warmup)
        self._reference_checks()
        self.warmup = None
        return median(raw), median(scaled)

    def _reference_checks(self) -> None:
        from repro.core import derive as derive_module

        if self.workload.executor == "process":
            serial = derive_module.derive_probabilistic_database(
                self.inputs.relation,
                config=self.config.replacing(executor="serial", workers=1),
                model=self.model,
            )
            serial_digest = database_digest(serial.database.blocks)
            self.notes["serial_digest"] = serial_digest
            if serial_digest != self.digest:
                self.setup_problems.append("process digest differs from serial digest")
        if self.workload.name == "bn7-single":
            blocks = self.warmup.database.blocks[:NAIVE_CHECK_TUPLES]
            naive = derive_module.single_missing_blocks(
                [b.base for b in blocks], self.model, engine="naive"
            )
            for got, want in zip(blocks, naive):
                if (
                    got.base != want.base
                    or got.distribution.outcomes != want.distribution.outcomes
                    or not np.array_equal(got.distribution.probs, want.distribution.probs)
                ):
                    self.setup_problems.append("compiled block differs from naive engine")
                    break

    def timed(self, seconds: float, trace: bool):
        """Run ops for ``seconds``; returns (untraced, traced) op times.

        Each list holds ``(raw, host-scaled)`` seconds per op.  With
        ``trace`` every other op runs with the wrappers installed, so traced
        and untraced ops interleave.
        """
        untraced: list[tuple[float, float]] = []
        traced: list[tuple[float, float]] = []
        self.op_records: list[OpRecord] = []
        speed = self.speed = HostSpeed()
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or (trace and not traced):
            tracing = trace and i % 2 == 1
            op_id = f"op{i}"
            inst = install(self.tracer) if tracing else None
            try:
                with (self.tracer.op(op_id) if tracing else nullcontext()):
                    t0 = time.perf_counter()
                    result = self._derive()
                    dt = time.perf_counter() - t0
            finally:
                if inst is not None:
                    inst.undo()
            scaled = dt * speed.scale()
            problems = block_problems(result.database.blocks, self.incomplete)
            if not problems and database_digest(result.database.blocks) != self.digest:
                problems.append("digest differs from the warm-up op")
            self.ledger.record(problems)
            (traced if tracing else untraced).append((dt, scaled))
            if tracing:
                self.op_records.append(OpRecord(op_id, "derive", dt))
            del result
            i += 1
        return untraced, traced


def _peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _reap_children(timeout: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def run_batch(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    run = BatchRun(workload, seed, tracer)
    if trace:
        inst = install(tracer)
        try:
            run.setup(1)
        finally:
            inst.undo()
    else:
        raw_setup, setup_s = run.setup(SETUP_REPS)
    untraced, traced = run.timed(seconds, trace)
    _reap_children()
    out = {
        "ledger": run.ledger,
        "setup_problems": run.setup_problems,
        "digest": run.digest,
        "facts": run.facts,
        "notes": run.notes,
    }
    scaled = [s for _, s in untraced]
    if trace:
        traced_scaled = [s for _, s in traced]
        overhead = median(traced_scaled) / median(scaled) - 1.0 if scaled else 0.0
        metrics, unmeasured = layer_metrics(tracer.dump(), run.op_records, overhead)
        out["layer_metrics"] = metrics
        out["unmeasured"] = unmeasured
    else:
        raw = [r for r, _ in untraced]
        out["e2e"] = {
            "setup_s": setup_s,
            "tuples_per_s": run.incomplete / median(scaled),
            "requests_per_s": len(scaled) / sum(scaled),
            "peak_rss_mb": _peak_rss_mb(),
        }
        out["raw"] = {
            "setup_s": raw_setup,
            "tuples_per_s": run.incomplete / median(raw),
            "requests_per_s": len(raw) / sum(raw),
            "op_latency_ms": [1e3 * t for t in raw],
            "probe_median_s": median(run.speed.probes),
        }
    return out
