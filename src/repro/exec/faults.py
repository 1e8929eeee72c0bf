"""Deterministic fault injection for the derivation runtime.

A :class:`FaultPlan` is a serializable description of *exactly* which shard
attempt should misbehave — "the worker crashes on shard #3, attempt 1",
"shard #5 hangs for twice the deadline" — so the fault-tolerance machinery
(per-shard retries, pool rebuilds, graceful degradation, durable resume)
can be tested deterministically instead of hopefully.  Three fault kinds:

* ``"error"`` — the shard attempt raises :class:`FaultInjected`; the retry
  loop records the failure and re-runs the shard.
* ``"crash"`` — in a process-pool worker the worker process hard-exits
  (``os._exit``), breaking the pool; in serial execution — where a
  hard exit would take the caller down with it — the fault downgrades to an
  ``"error"``.
* ``"hang"`` — the shard attempt sleeps ``delay`` seconds (default twice
  the retry deadline) before proceeding; the process executor's deadline
  scan detects the overdue shard, kills the pool, and requeues it.

Shards are selected by plan position (``index``) or content ``key``, and
faults fire on one specific ``attempt`` — so the retried attempt runs
clean and, because shard seeds are content-keyed, produces a result
bit-identical to a fault-free run.

Injection routes: pass a plan to the runtime entry points
(``execute_derivation(..., faults=...)``), or set the ``REPRO_FAULT_PLAN``
environment variable to the JSON form (or ``@/path/to/plan.json``) — the
env route is how the CLI and a served process are chaos-tested from the
outside.  No :class:`~repro.api.config.DeriveConfig` carries a fault plan.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import ShardPlan

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "ShardFault",
    "FaultPlan",
    "bind_faults",
    "resolve_fault_plan",
    "apply_fault",
]

#: Recognized fault kinds.
FAULT_KINDS = ("error", "crash", "hang")

#: Environment variable carrying a JSON fault plan (or ``@path`` to one).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class FaultInjected(RuntimeError):
    """The failure an ``"error"`` (or in-process ``"crash"``) fault raises."""


@dataclass(frozen=True)
class ShardFault:
    """One injected fault: which shard, which attempt, what goes wrong.

    ``index`` selects a shard by its position in the plan's shard tuple;
    ``key`` selects by content key (exact match) and wins over ``index``.
    ``attempt`` is 1-based: a fault on attempt 1 fires on the first try
    and leaves every retry clean.  ``delay`` is the hang duration in
    seconds (``"hang"`` only; defaults to twice the retry deadline, or
    1 second when no deadline is set).
    """

    kind: str
    index: int | None = None
    key: str | None = None
    attempt: int = 1
    delay: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.index is None and self.key is None:
            raise ValueError("fault needs an 'index' or a 'key' selector")
        if self.attempt < 1:
            raise ValueError(f"attempt is 1-based, got {self.attempt}")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind, "attempt": self.attempt}
        if self.index is not None:
            doc["index"] = self.index
        if self.key is not None:
            doc["key"] = self.key
        if self.delay is not None:
            doc["delay"] = self.delay
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardFault":
        return cls(
            kind=data["kind"],
            index=data.get("index"),
            key=data.get("key"),
            attempt=int(data.get("attempt", 1)),
            delay=data.get("delay"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A serializable set of :class:`ShardFault` injections."""

    faults: tuple[ShardFault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def to_dict(self) -> dict[str, Any]:
        return {"faults": [f.to_dict() for f in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            faults=tuple(
                ShardFault.from_dict(f) for f in data.get("faults", ())
            )
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def coerce(cls, value: "FaultPlan | Mapping[str, Any] | Sequence | None") -> "FaultPlan | None":
        """Accept a plan, its dict form, or a bare fault list."""
        if value is None or isinstance(value, FaultPlan):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        return cls(faults=tuple(
            f if isinstance(f, ShardFault) else ShardFault.from_dict(f)
            for f in value
        ))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "FaultPlan | None":
        """The plan named by ``REPRO_FAULT_PLAN``, or None when unset.

        The variable holds either the JSON form directly or ``@path`` to a
        file containing it.
        """
        raw = (environ if environ is not None else os.environ).get(
            FAULT_PLAN_ENV, ""
        ).strip()
        if not raw:
            return None
        if raw.startswith("@"):
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        return cls.from_json(raw)


def resolve_fault_plan(
    faults: "FaultPlan | Mapping[str, Any] | None",
) -> "FaultPlan | None":
    """The fault plan a runtime call should honor.

    Resolution order: the explicit ``faults`` argument, then the
    environment.
    """
    plan = FaultPlan.coerce(faults)
    if plan is not None:
        return plan
    return FaultPlan.from_env()


def bind_faults(
    plan: "FaultPlan | None", shard_plan: "ShardPlan"
) -> dict[tuple[str, int], ShardFault]:
    """Resolve a fault plan against a shard plan: (shard key, attempt) map.

    Index selectors are resolved by plan position; out-of-range indices are
    ignored (the fault simply never fires — a plan written for a bigger
    workload stays harmless on a smaller one).
    """
    if not plan:
        return {}
    bound: dict[tuple[str, int], ShardFault] = {}
    for fault in plan.faults:
        key = fault.key
        if (
            key is None
            and fault.index is not None
            and 0 <= fault.index < len(shard_plan.shards)
        ):
            key = shard_plan.shards[fault.index].key
        if key is not None:
            bound[(key, fault.attempt)] = fault
    return bound


def apply_fault(
    fault: ShardFault | None,
    deadline: float | None = None,
    allow_crash: bool = False,
) -> None:
    """Fire an injected fault inside a shard attempt (no-op when None).

    ``allow_crash`` is True only inside process-pool workers, where a hard
    exit breaks the pool without taking the caller down; elsewhere a crash
    downgrades to the injected error.
    """
    if fault is None:
        return
    if fault.kind == "hang":
        delay = fault.delay
        if delay is None:
            delay = 2.0 * deadline if deadline else 1.0
        time.sleep(delay)
        return
    if fault.kind == "crash" and allow_crash:
        os._exit(3)
    raise FaultInjected(
        f"injected {fault.kind} (attempt {fault.attempt})"
    )
