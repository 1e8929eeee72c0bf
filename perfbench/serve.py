"""The ``serve`` workload: ``repro serve`` in its own process, one client.

Set-up starts a fresh server (stderr to a log file: the server logs every
request there, and an undrained pipe would block it), POSTs ``/v1/learn``
with 20,000 census rows and a base ``/v1/derive`` of 500 incomplete plus
500 complete rows.  The timed part is a closed loop from this one process
over one keep-alive connection, cycling four ops in equal shares with
bodies generated before timing starts:

``infer``   20 single-missing rows;
``query``   a selection on the derived database;
``update``  a 1-cell ChangeSet, clearing a cell on even cycles and
            restoring it on odd ones, so the database returns to its
            set-up state every two cycles;
``derive``  100 rows via ``?mode=async``, then the job's ``/events``
            stream, then ``/result``.

Every request has a timeout; a timeout, a non-200 status or a failed check
counts as a failed op.  One connection, because on a 2-CPU host the
server's interpreter lock and the client each need a core.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import OP_KINDS, OpRecord, layer_metrics
from stats import ErrorLedger, HostSpeed, max_reportable_percentile, median, percentile

TRAIN_SEED = 2011
SETUP_REPS = 3

#: Seconds any one request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0

#: Seconds a server may take to print its listening line.
START_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)/")

OUT_DIR = Path(".perfbench")


class Server:
    """One ``repro serve`` process with its stderr in a log file."""

    def __init__(self, seed: int, spans_path: Path | None):
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"serve-{os.getpid()}-{time.monotonic_ns()}.log"
        self.spans_path = spans_path
        args = [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--seed", str(seed), "--support", "0.001",
            "--samples", "1000", "--burn-in", "50", "--executor", "serial",
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            cmd = [sys.executable, str(launcher), str(spans_path), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log, env=env,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """Interrupt the server (it shuts down on SIGINT) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """One keep-alive HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT):
        self.port = port
        self.timeout = timeout
        self.conn = None

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
        hdrs = {"Content-Type": "application/json"}
        hdrs.update(headers or {})
        try:
            self.conn.request(method, path, body=body, headers=hdrs)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _json(data) -> bytes:
    return json.dumps(data).encode()


def _rows(relation) -> list[list]:
    return [list(t.values()) for t in relation]


class Bodies:
    """Every request body of a run, generated from the seed before timing."""

    def __init__(self, seed: int):
        from repro.bench.masking import mask_relation
        from repro.datasets.census import census_schema, load_census

        schema = census_schema()
        train, _ = load_census(20_000, np.random.default_rng(TRAIN_SEED))
        self.learn = _json({
            "schema": {a.name: list(a.domain) for a in schema},
            "rows": _rows(train),
            "model": "default",
        })
        rng = np.random.default_rng(seed)
        complete, _ = load_census(500, rng)
        incomplete, _ = load_census(500, rng)
        base_rows = _rows(complete) + _rows(mask_relation(incomplete, (1, 2, 3), rng))
        self.base_derive = _json({
            "rows": base_rows, "model": "default", "name": "default",
            "include_blocks": True,
        })
        self.base_incomplete = sum("?" in r for r in base_rows)
        infer_rows, _ = load_census(8 * 20, rng)
        masked = _rows(mask_relation(infer_rows, 1, rng))
        self.infer = [
            _json({"rows": masked[i:i + 20], "model": "default"})
            for i in range(0, len(masked), 20)
        ]
        self.query = _json({
            "query": {
                "type": "selection",
                "where": {"op": "and", "args": [
                    {"op": "eq", "attr": "income", "value": "high"},
                    {"op": "eq", "attr": "wealth", "value": "high"},
                ]},
                "project": None,
            },
            "database": "default",
        })
        index = int(rng.integers(len(complete)))
        original = base_rows[index][schema.index("income")]
        self.update = [
            _json({"changes": {"ops": [
                {"op": "update", "index": index, "set": {"income": value}}
            ]}, "name": "default"})
            for value in ("?", original)
        ]
        derive_rows, _ = load_census(100, rng)
        self.derive_rows = 100
        self.derive = _json({
            "rows": _rows(mask_relation(derive_rows, (1, 2, 3), rng)),
            "model": "default", "name": "scratch", "include_blocks": True,
        })


def _blocks_digest(blocks) -> str:
    return hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()


class ServeRun:
    def __init__(self, seed: int, trace: bool):
        self.seed = seed
        self.trace = trace
        self.bodies = Bodies(seed)
        self.ledger = ErrorLedger()
        self.setup_problems: list[str] = []
        self.server: Server | None = None
        self.derive_digest: str | None = None

    # -- set-up ------------------------------------------------------------

    def _setup_once(self) -> float:
        start = time.perf_counter()
        spans = OUT_DIR / f"spans-{os.getpid()}.json" if self.trace else None
        self.server = Server(self.seed, spans)
        self.client = Client(self.server.port)
        headers = {"X-Bench-Op": "setup", "X-Bench-Trace": "1"} if self.trace else {}
        status, data = self.client.request("POST", "/v1/learn", self.bodies.learn, headers)
        if status != 200:
            raise RuntimeError(f"learn failed: {status} {data[:200]!r}")
        self.meta_rules = json.loads(data)["meta_rules"]
        status, data = self.client.request(
            "POST", "/v1/derive", self.bodies.base_derive, headers
        )
        if status != 200:
            raise RuntimeError(f"base derive failed: {status} {data[:200]!r}")
        base = json.loads(data)
        self.base_blocks = base["num_blocks"]
        self.digest = _blocks_digest(base["blocks"])
        if self.base_blocks != self.bodies.base_incomplete:
            self.setup_problems.append("base derive block count")
        return time.perf_counter() - start

    def setup(self, reps: int) -> tuple[float, float]:
        """Set up ``reps`` fresh servers; returns median (raw, host-scaled) s."""
        speed = HostSpeed()
        raw, scaled = [], []
        for _ in range(reps):
            if self.server is not None:
                self.close()
            raw.append(self._setup_once())
            scaled.append(raw[-1] * speed.scale())
        return median(raw), median(scaled)

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        self.server.log_path.unlink(missing_ok=True)

    # -- ops ---------------------------------------------------------------

    def _post(self, path, body, headers) -> dict:
        status, data = self.client.request("POST", path, body, headers)
        if status != 200:
            raise _Failed(f"{path} returned {status}")
        return json.loads(data)

    def op_infer(self, cycle, headers) -> list[str]:
        resp = self._post("/v1/infer", self.bodies.infer[cycle % len(self.bodies.infer)],
                          headers)
        cpds = resp.get("cpds")
        if not isinstance(cpds, list) or len(cpds) != 20:
            return ["infer: wrong number of cpds"]
        for cpd in cpds:
            probs = cpd.get("probs", [])
            if min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-9:
                return ["infer: cpd is not a distribution"]
        return []

    def op_query(self, cycle, headers) -> list[str]:
        resp = self._post("/v1/query", self.bodies.query, headers)
        results = resp.get("results")
        if not isinstance(results, list) or not results:
            return ["query: no results"]
        if any(not 0.0 < r["probability"] <= 1.0 for r in results):
            return ["query: probability outside (0, 1]"]
        return []

    def op_update(self, cycle, headers) -> list[str]:
        clear = cycle % 2 == 0
        resp = self._post("/v1/update", self.bodies.update[0 if clear else 1], headers)
        expected = self.base_blocks + (1 if clear else 0)
        if resp.get("num_blocks") != expected:
            return [f"update: {resp.get('num_blocks')} blocks, expected {expected}"]
        return []

    def op_derive(self, cycle, headers) -> list[str]:
        job = self._post("/v1/derive?mode=async", self.bodies.derive, headers)["job_id"]
        status, data = self.client.request(
            "GET", f"/v1/jobs/{job}/events?timeout=60&heartbeat=0", None, headers
        )
        events = [json.loads(line) for line in data.splitlines() if line.strip()]
        if status != 200 or not events or events[-1].get("event") != "done":
            raise _Failed("derive: job did not finish")
        status, data = self.client.request("GET", f"/v1/jobs/{job}/result", None, headers)
        if status != 200:
            raise _Failed(f"/result returned {status}")
        result = json.loads(data)
        if result.get("num_blocks") != self.bodies.derive_rows:
            return ["derive: wrong number of blocks"]
        digest = _blocks_digest(result["blocks"])
        if self.derive_digest is None:
            self.derive_digest = digest
        elif digest != self.derive_digest:
            return ["derive: result differs from the first derive of the run"]
        return []

    def timed(self, seconds: float) -> None:
        """Closed loop of whole cycles until ``seconds`` have passed.

        The host-speed probe runs between cycles; every latency of a cycle
        is scaled by that cycle's factor.
        """
        ops = [(k, getattr(self, f"op_{k}")) for k in OP_KINDS]
        self.latencies = {k: [] for k in OP_KINDS}
        self.raw_latencies = {k: [] for k in OP_KINDS}
        self.cycle_times = {False: [], True: []}
        self.raw_window = 0.0
        self.op_records: list[OpRecord] = []
        speed = self.speed = HostSpeed()
        start = time.perf_counter()
        cycle = 0
        while time.perf_counter() - start < seconds or (
            self.trace and not self.cycle_times[True]
        ):
            # Trace pairs of cycles, so traced updates both clear and restore.
            traced = self.trace and (cycle // 2) % 2 == 1
            done = []
            c0 = time.perf_counter()
            for kind, op in ops:
                op_id = f"c{cycle}-{kind}"
                headers = {"X-Bench-Op": op_id, "X-Bench-Trace": "1" if traced else "0"}
                dt = attempt(self.ledger, kind, lambda: op(cycle, headers))
                if dt is not None:
                    done.append((kind, op_id, dt))
            elapsed = time.perf_counter() - c0
            factor = speed.scale()
            for kind, op_id, dt in done:
                self.raw_latencies[kind].append(dt)
                self.latencies[kind].append(dt * factor)
                if traced:
                    self.op_records.append(OpRecord(op_id, kind, dt))
            self.cycle_times[traced].append(elapsed * factor)
            self.raw_window += elapsed
            cycle += 1


class _Failed(Exception):
    """An op failed a status or protocol check."""


#: What one op may raise and still count as a failed op, not a crashed run:
#: a timeout (``TimeoutError`` is an ``OSError``), a dropped connection, a
#: malformed response, or a failed status check.
OP_FAILURES = (_Failed, OSError, http.client.HTTPException, ValueError, KeyError)


def attempt(ledger: ErrorLedger, kind: str, op) -> float | None:
    """Run one op, count it, and return its latency (None when it failed)."""
    start = time.perf_counter()
    try:
        problems = op()
    except OP_FAILURES as exc:
        problems = [f"{kind}: {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    return elapsed if ledger.record(problems) else None


def latency_summary(latencies: dict[str, list[float]]) -> dict:
    """Per-op p50/p90 in ms with sample counts (p90 only when reportable)."""
    out = {}
    for kind, values in latencies.items():
        ms = [1e3 * v for v in values]
        out[kind] = {
            "n": len(ms),
            "p50_ms": median(ms) if ms else None,
            "p90_ms": percentile(ms, 0.9),
            "max_reportable_percentile": round(max_reportable_percentile(len(ms)), 4),
        }
    return out


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    run = ServeRun(seed, trace)
    try:
        raw_setup, setup_s = run.setup(1 if trace else SETUP_REPS)
        run.timed(seconds)
        rss = run.server.peak_rss_mb()
    finally:
        if run.server is not None:
            run.close()
    out = {
        "ledger": run.ledger,
        "setup_problems": run.setup_problems,
        "digest": run.digest,
        "facts": {
            "rows": len(json.loads(run.bodies.base_derive)["rows"]),
            "incomplete": run.bodies.base_incomplete,
            "model_size": run.meta_rules,
        },
        "notes": {"derive_digest": run.derive_digest},
    }
    if trace:
        spans = json.loads(run.server.spans_path.read_text())
        run.server.spans_path.unlink()
        untraced = median(run.cycle_times[False]) if run.cycle_times[False] else 0.0
        overhead = median(run.cycle_times[True]) / untraced - 1.0 if untraced else 0.0
        metrics, unmeasured = layer_metrics(spans, run.op_records, overhead)
        out["layer_metrics"] = metrics
        out["unmeasured"] = unmeasured
    else:
        completed = sum(len(v) for v in run.latencies.values())
        out["e2e"] = {
            "setup_s": setup_s,
            "tuples_per_s": run.bodies.derive_rows / median(run.latencies["derive"]),
            "requests_per_s": completed / sum(run.cycle_times[False]),
            "peak_rss_mb": rss,
        }
        out["raw"] = {
            "setup_s": raw_setup,
            "tuples_per_s": run.bodies.derive_rows / median(run.raw_latencies["derive"]),
            "requests_per_s": completed / run.raw_window,
            "latency": latency_summary(run.raw_latencies),
            "probe_median_s": median(run.speed.probes),
        }
        out["latency"] = latency_summary(run.latencies)
    return out
