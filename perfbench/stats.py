"""Helpers of the benchmark: percentiles, failure accounting, self time, the
database digest and the host-speed scale.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` run without it.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; below that a single outlier decides the value.
MIN_TAIL_SAMPLES = 10

#: Iterations of the host-speed probe loop.
PROBE_ITERATIONS = 700_000

#: Seconds the probe takes on the reference host (a 2-CPU cloud VM in its
#: fast periods); reported times are scaled to this speed.
REFERENCE_PROBE_S = 0.05


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The loop shares no code with the program, so a change to the program
    cannot move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Scales measured intervals to the reference host speed.

    On a shared host the same code runs up to twice as slowly from one
    minute to the next, and the probe loop slows with it (correlation 0.8
    on ``bn7-single`` ops).  The probe runs between intervals; an interval
    is scaled by ``REFERENCE_PROBE_S`` over the mean of the probes just
    before and just after it, which removes the host's drift from
    run-to-run comparisons.
    """

    def __init__(self, probe: Callable[[], float] = host_probe):
        self._probe = probe
        self._before = probe()
        self.probes = [self._before]

    def scale(self) -> float:
        """Factor for the interval since the previous call (probes now)."""
        after = self._probe()
        self.probes.append(after)
        factor = REFERENCE_PROBE_S / ((self._before + after) / 2.0)
        self._before = after
        return factor


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile (``0 < q < 1``), or None when too few.

    The value is reported only when at least :data:`MIN_TAIL_SAMPLES`
    samples lie strictly beyond its rank, so p90 needs 100 samples and p50
    needs 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(values)
    rank = math.ceil(q * n)  # 1-based nearest rank
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return float(sorted(values)[rank - 1])


def max_reportable_percentile(n: int) -> float:
    """The highest quantile with at least ten samples beyond it (0 if none)."""
    if n <= MIN_TAIL_SAMPLES:
        return 0.0
    return (n - MIN_TAIL_SAMPLES) / n


@dataclass
class ErrorLedger:
    """Attempted and failed operations, with a reason per failure.

    A non-200 response, a request timeout and a failed output check each
    count as one failure of the operation they belong to.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def record(self, problems: Iterable[str]) -> bool:
        """Count one operation; it fails when ``problems`` is non-empty."""
        problems = list(problems)
        if problems:
            self.fail(problems[0])
            return False
        self.ok()
        return True

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_start, cur_end = None, None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may nest or overlap one another (concurrent threads); the
    covered part is the union of their intervals, clipped to the span.
    """
    return (end - start) - covered_length(children, start, end)


def database_digest(blocks) -> str:
    """sha256 over every block's base codes, outcomes and probability bytes.

    Independent of ``PYTHONHASHSEED``: it reads arrays and ``repr`` of the
    outcome values in block order and never iterates a set or dict.
    Blocks often share one distribution object, so each distinct
    distribution is encoded once.
    """
    h = hashlib.sha256()
    encoded: dict[int, bytes] = {}
    for block in blocks:
        dist = block.distribution
        key = id(dist)
        payload = encoded.get(key)
        if payload is None:
            payload = repr(tuple(dist.outcomes)).encode() + dist.probs.tobytes()
            encoded[key] = payload
        h.update(block.base.codes.tobytes())
        h.update(payload)
    return h.hexdigest()


def block_problems(blocks, expected: int, tol: float = 1e-9) -> list[str]:
    """Why a list of blocks is not a valid database of ``expected`` blocks.

    Every block's probabilities must be non-negative and sum to 1 within
    ``tol``.  An empty list means the blocks passed.
    """
    problems = []
    if len(blocks) != expected:
        problems.append(f"{len(blocks)} blocks for {expected} incomplete tuples")
    seen: set[int] = set()
    for i, block in enumerate(blocks):
        dist = block.distribution
        if id(dist) in seen:
            continue
        seen.add(id(dist))
        probs = dist.probs
        if (probs < 0).any():
            problems.append(f"block {i} has a negative probability")
            break
        if abs(float(probs.sum()) - 1.0) > tol:
            problems.append(f"block {i} probabilities sum to {float(probs.sum())!r}")
            break
    return problems
