"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload census-gibbs --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.json`` for why each exists and the set-up counts
that must repeat): ``census-gibbs``, ``bn7-single``, ``census-process``
(``batch.py``) and ``serve`` (``serve.py``).  Inputs come from ``--seed``;
the same seed gives the same inputs and the same database digest.

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` is a separate pass: every other op runs with span wrappers
around each layer's public entry points (``tracing.py``), the per-layer
metrics come from those ops, and ``trace.overhead_frac`` compares them with
the untraced ops in between.

Times are scaled to a reference host speed.  On a shared host the same
code runs up to twice as slowly from one minute to the next; a fixed
pure-Python probe loop (``stats.HostSpeed``) runs between ops (between
cycles for ``serve``) and each interval is scaled by the reference probe
time over the probes around it.  The probe shares no code with the
program, so only host drift cancels.  The unscaled figures are printed on
the ``raw:`` line.

Every output is checked; an op that fails a check counts in ``failed``.
Lines before the last are human-readable context: a stamp of the machine
and code, the workload's set-up counts, its digest, error accounting,
(for ``serve``) per-op p50/p90 latencies with sample counts, and the raw
figures.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import traceback
from pathlib import Path

WORKLOADS = ("census-gibbs", "bn7-single", "census-process", "serve")

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"),
    ("tuples_per_s", "tuples/s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
]

HERE = Path(__file__).resolve().parent


def _git_commit() -> str:
    """HEAD of a git checkout in the working directory, read without git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the program's source files: identifies the code built."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _stamp(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "load1_before": load,
        "started_loaded": load > nproc,
    }


def _check_facts(workload: str, seed: int, facts: dict) -> list[str]:
    """Set-up counts that differ from the recorded ones (a changed workload)."""
    recorded = json.loads((HERE / "workloads.json").read_text())[workload]
    expected = dict(recorded["facts"])
    if seed == recorded["reference_seed"]:
        expected.update(recorded["reference_facts"])
    return [
        f"{key}: {facts.get(key)} (recorded {value})"
        for key, value in expected.items()
        if facts.get(key) != value
    ]


def _emit(label: str, payload) -> None:
    print(f"{label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print(
            "perfbench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import repro

    if Path(repro.__file__).resolve().parent != Path("src/repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    stamp = _stamp(args.workload, args.seed, trace)
    if args.workload == "serve":
        from serve import run_serve

        out = run_serve(args.seed, args.seconds, trace)
    else:
        from batch import run_batch

        out = run_batch(args.workload, args.seed, args.seconds, trace)
    stamp["load1_after"] = os.getloadavg()[0]
    _emit("stamp", stamp)
    if stamp["started_loaded"]:
        print(
            f"warning: run started with 1-minute load {stamp['load1_before']:.2f} "
            f"above nproc={stamp['nproc']}",
            flush=True,
        )
    changed = _check_facts(args.workload, args.seed, out["facts"])
    _emit("facts", {**out["facts"], "changed": changed})
    _emit("digest", {"database": out["digest"], **out["notes"]})
    ledger = out["ledger"]
    _emit("errors", {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.error_rate,
        "reasons": dict(ledger.reasons),
        "setup_problems": out["setup_problems"],
    })
    if trace:
        from layers import PER_LAYER

        _emit("unmeasured", {
            "names": out["unmeasured"],
            "why": "computed inside process-pool workers; the parent's "
            "wrappers cannot see them",
        })
        metrics = {
            name: {"value": out["layer_metrics"][name], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        if "latency" in out:
            _emit("latency", out["latency"])
        _emit("raw", out["raw"])
        metrics = {
            name: {"value": out["e2e"][name], "unit": unit} for name, unit in END_TO_END
        }
    result = {
        "correct": not out["setup_problems"] and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, print no result, fail the run
        traceback.print_exc()
        sys.exit(1)
