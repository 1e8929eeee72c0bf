"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the repository root)::

    python perfbench/serve_launcher.py SPANS.json serve [repro serve arguments...]

Requests carrying ``X-Bench-Trace: 1`` and an ``X-Bench-Op`` id are
recorded; all others run unrecorded.  The spans are written to SPANS.json
once, when the server shuts down (it stops on SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.abspath("src"))

from tracing import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, repro_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer, http=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
