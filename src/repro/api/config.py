"""Typed pipeline configuration: one source of truth for every knob.

Before this module existed, each entry point (the derive pipeline, the lazy
deriver, the query engine, the CLI) declared its own defaults for the same
nine knobs, and they drifted — the CLI's ``--burn-in`` defaulted to 200
while the library defaulted to 100.  :class:`DeriveConfig` now owns the
defaults; every consumer reads them from here, and the frozen dataclass
round-trips through plain JSON so a configuration can arrive over a wire,
live in a file, or be logged next to the results it produced.

Legacy keyword arguments keep working everywhere via :func:`resolve_config`:
entry points accept both a ``config`` object and the historical kwargs, with
explicit kwargs overriding config fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Mapping

from ..core.engine import DEFAULT_ENGINE, validate_engine
from ..core.inference import VoterChoice, VotingScheme
from ..core.itemsets import DEFAULT_MAX_ITEMSETS
from ..core.tuple_dag import STRATEGIES
from ..exec.base import (
    DEFAULT_EXECUTOR,
    DEFAULT_FAILURE_POLICY,
    DEFAULT_WORKERS,
    validate_executor,
    validate_failure_policy,
    validate_workers,
)

__all__ = ["DeriveConfig", "resolve_config"]


@dataclass(frozen=True)
class DeriveConfig:
    """Every knob of the derive pipeline, validated and JSON-serializable.

    Fields map one-to-one onto the paper's parameters: ``support_threshold``
    and ``max_itemsets`` drive Algorithm 1 mining, ``v_choice``/``v_scheme``
    configure Algorithm 2 voting, ``num_samples``/``burn_in``/``strategy``
    set the Algorithm 3 Gibbs workload, ``seed`` fixes the samplers, and
    ``engine`` picks the compiled or naive inference path.  ``executor``
    and ``workers`` select the derivation runtime (:mod:`repro.exec`):
    serial, thread-pool, or process-pool shard execution — results are
    bit-identical across all of them for any worker count.

    ``gibbs_vectorized`` (default on) serves multi-missing shards with the
    vectorized lock-step ensemble kernel
    (:class:`~repro.core.gibbs.GibbsEnsemble`); turning it off restores
    the scalar tuple-DAG sampler as a correctness oracle (same admissible
    posterior, different — equally valid — seeded sample sets).
    ``gibbs_chains`` runs that many independent chains per multi-missing
    tuple in the ensemble and pools their draws into the same
    ``num_samples`` budget — more starting points, better mixing, at
    effectively the same wall-clock.

    ``trust`` and ``update_policy`` govern base-table updates
    (``Session.apply_updates`` / ``repro update``): ``trust`` is the
    ordered source-priority list resolving conflicting ChangeSet writes to
    the same cell (earlier ids are trusted more, unlisted sources rank
    last), and ``update_policy`` picks incremental re-derivation
    (``"delta"``, the default — untouched blocks carry over verbatim) or a
    from-scratch re-derive (``"full"``).

    The fault-tolerance knobs: each shard gets ``shard_retries`` retries
    with deterministic exponential backoff, ``shard_deadline`` (seconds,
    None = unlimited) bounds one shard attempt before it is treated as
    hung, and ``failure_policy`` decides what an unrecoverable executor
    failure does — ``"strict"`` (default) raises with the partial report
    attached, ``"degrade"`` falls back process→thread→serial and keeps
    deriving.  Retried and degraded runs stay bit-identical to clean runs
    because Gibbs segment seeds are content-keyed.
    """

    support_threshold: float = 0.01
    max_itemsets: int = DEFAULT_MAX_ITEMSETS
    v_choice: str = VoterChoice.BEST.value
    v_scheme: str = VotingScheme.AVERAGED.value
    num_samples: int = 2000
    burn_in: int = 100
    strategy: str = "tuple_dag"
    seed: int | None = None
    engine: str = DEFAULT_ENGINE
    executor: str = DEFAULT_EXECUTOR
    workers: int = DEFAULT_WORKERS
    gibbs_chains: int = 1
    gibbs_vectorized: bool = True
    trust: tuple[str, ...] = ()
    update_policy: str = "delta"
    failure_policy: str = DEFAULT_FAILURE_POLICY
    shard_retries: int = 1
    shard_deadline: float | None = None

    def __post_init__(self) -> None:
        set_ = object.__setattr__  # frozen dataclass: normalize in place
        set_(self, "support_threshold", float(self.support_threshold))
        set_(self, "max_itemsets", int(self.max_itemsets))
        set_(self, "v_choice", VoterChoice(self.v_choice).value)
        set_(self, "v_scheme", VotingScheme(self.v_scheme).value)
        set_(self, "num_samples", int(self.num_samples))
        set_(self, "burn_in", int(self.burn_in))
        set_(self, "engine", validate_engine(self.engine))
        set_(self, "executor", validate_executor(self.executor))
        set_(self, "workers", validate_workers(self.workers))
        set_(self, "gibbs_chains", int(self.gibbs_chains))
        if not isinstance(self.gibbs_vectorized, bool):
            # bool("off") is True — reject string spellings outright
            # rather than silently running the wrong kernel.
            raise ValueError(
                f"gibbs_vectorized must be a boolean, "
                f"got {self.gibbs_vectorized!r}"
            )
        if self.seed is not None:
            set_(self, "seed", int(self.seed))
        if not 0.0 <= self.support_threshold <= 1.0:
            raise ValueError(
                f"support_threshold must lie in [0, 1], "
                f"got {self.support_threshold!r}"
            )
        if self.max_itemsets < 1:
            raise ValueError("max_itemsets must be positive")
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.gibbs_chains < 1:
            raise ValueError("gibbs_chains must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if isinstance(self.trust, str):
            raise ValueError(
                "trust must be a sequence of source ids, not a bare string"
            )
        set_(self, "trust", tuple(str(s) for s in self.trust))
        if self.update_policy not in ("delta", "full"):
            raise ValueError(
                f"update_policy must be 'delta' or 'full', "
                f"got {self.update_policy!r}"
            )
        set_(self, "failure_policy", validate_failure_policy(self.failure_policy))
        set_(self, "shard_retries", int(self.shard_retries))
        if self.shard_retries < 0:
            raise ValueError("shard_retries must be non-negative")
        if self.shard_deadline is not None:
            set_(self, "shard_deadline", float(self.shard_deadline))
            if self.shard_deadline <= 0:
                raise ValueError(
                    "shard_deadline must be positive (or None for unlimited)"
                )

    @property
    def parallelism(self) -> int:
        """Worker count the executor will actually run (serial is always 1).

        ``workers`` is legal alongside ``executor="serial"`` but ignored by
        the serial executor; progress estimates (running shards, ETA) must
        size themselves from this, not from raw ``workers``.
        """
        return 1 if self.executor == "serial" else self.workers

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able mapping; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeriveConfig":
        """Rebuild a config from :meth:`to_dict` output (or any subset)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; "
                f"valid keys are {sorted(known)}"
            )
        return cls(**dict(data))

    def replacing(self, **changes: Any) -> "DeriveConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)


_FIELD_NAMES = frozenset(f.name for f in fields(DeriveConfig))


def resolve_config(
    config: "DeriveConfig | Mapping[str, Any] | None" = None,
    **overrides: Any,
) -> DeriveConfig:
    """Merge a config (object, dict, or None) with legacy keyword overrides.

    ``None``-valued overrides mean "not given" and are ignored, which is what
    lets every entry point keep its historical keyword signature while
    sourcing defaults from :class:`DeriveConfig`.
    """
    if config is None:
        cfg = DeriveConfig()
    elif isinstance(config, DeriveConfig):
        cfg = config
    elif isinstance(config, Mapping):
        cfg = DeriveConfig.from_dict(config)
    else:
        raise TypeError(
            f"config must be a DeriveConfig, mapping, or None, "
            f"got {type(config).__name__}"
        )
    changes = {k: v for k, v in overrides.items() if v is not None}
    bad = set(changes) - _FIELD_NAMES
    if bad:
        raise TypeError(f"unknown config overrides {sorted(bad)}")
    return cfg.replacing(**changes) if changes else cfg
