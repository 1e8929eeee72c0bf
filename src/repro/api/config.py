"""Typed pipeline configuration: one source of truth for every knob.

Before this module existed, each entry point (the derive pipeline, the lazy
deriver, the query engine, the CLI) declared its own defaults for the same
nine knobs, and they drifted — the CLI's ``--burn-in`` defaulted to 200
while the library defaulted to 100.  :class:`DeriveConfig` now owns the
defaults and is the only carrier of a knob: the derive pipeline, the lazy
deriver, the session, the JSON service and the CLI all take a ``config``,
not per-knob keywords.  The frozen dataclass round-trips through plain
JSON, so a configuration can arrive over a wire, live in a file, or be
logged next to the results it produced.  Each field's :class:`CliFlag` metadata declares its ``repro``
command-line flag, from which :mod:`repro.cli` generates its parser.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Mapping

from ..core.engine import DEFAULT_ENGINE, ENGINES, validate_engine
from ..core.inference import VoterChoice, VotingScheme
from ..core.itemsets import DEFAULT_MAX_ITEMSETS
from ..exec.base import (
    DEFAULT_EXECUTOR,
    DEFAULT_FAILURE_POLICY,
    DEFAULT_WORKERS,
    EXECUTORS,
    FAILURE_POLICIES,
    effective_workers,
    validate_executor,
    validate_failure_policy,
    validate_workers,
)

__all__ = [
    "CliFlag",
    "DeriveConfig",
    "UPDATE_POLICIES",
    "check_config_keys",
    "resolve_config",
]

#: Recognized re-derive modes after a base-table update.
UPDATE_POLICIES = ("delta", "full")

#: ``repro`` subcommands that learn a model (every knob of Algorithm 1).
LEARNING_COMMANDS = ("derive", "update", "inspect", "learn", "serve")

#: ``repro`` subcommands that run the whole pipeline.
PIPELINE_COMMANDS = ("derive", "update", "serve")


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class CliFlag:
    """How one :class:`DeriveConfig` field appears on the ``repro`` CLI.

    ``type``/``choices``/``help`` go to ``argparse`` as they are (``help``
    may use ``%(default)s``).  ``parse`` maps the parsed flag value onto the
    field and ``show`` maps the field default onto the flag default, for
    flags whose spelling differs from the field (the comma-separated
    ``--trust``).
    """

    flag: str
    help: str | None = None
    commands: tuple[str, ...] = PIPELINE_COMMANDS
    type: Callable[[str], Any] | None = None
    choices: tuple[str, ...] | None = None
    parse: Callable[[Any], Any] = _same
    show: Callable[[Any], Any] = _same

    @property
    def dest(self) -> str:
        """The ``argparse`` namespace attribute the flag parses into."""
        return self.flag.lstrip("-").replace("-", "_")


def _knob(default: Any, flag: str, **cli: Any) -> Any:
    """A config field with a default and its CLI flag."""
    return field(default=default, metadata={"cli": CliFlag(flag, **cli)})


def _split_sources(value: str | None) -> tuple[str, ...]:
    """``--trust a,b`` -> ``("a", "b")``; absent -> ``()``."""
    if value is None:
        return ()
    return tuple(s.strip() for s in value.split(",") if s.strip())


@dataclass(frozen=True)
class DeriveConfig:
    """Every knob of the derive pipeline, validated and JSON-serializable.

    Fields map one-to-one onto the paper's parameters: ``support_threshold``
    and ``max_itemsets`` drive Algorithm 1 mining, ``v_choice``/``v_scheme``
    configure Algorithm 2 voting, ``num_samples``/``burn_in`` set the
    Algorithm 3 Gibbs workload, ``seed`` fixes the samplers, and
    ``engine`` picks the compiled or naive Algorithm 2 kernel for
    single-missing tuples.  ``executor`` and ``workers`` select the
    derivation runtime (:mod:`repro.exec`): serial in-process or
    process-pool shard execution — results are bit-identical for either
    and for any worker count.

    Multi-missing tuples always run the lock-step ensemble kernel
    (:class:`~repro.core.gibbs.GibbsEnsemble`) on the compiled engine,
    whatever ``engine`` says.  ``gibbs_chains`` runs that many independent
    chains per multi-missing tuple in the ensemble and pools their draws
    into the same ``num_samples`` budget — more starting points, better
    mixing, at effectively the same wall-clock.

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
    attached, ``"degrade"`` falls back process→serial and keeps deriving.
    Retried and degraded runs stay bit-identical to clean runs because
    Gibbs segment seeds are content-keyed.
    """

    support_threshold: float = _knob(
        0.01, "--support", type=float, commands=LEARNING_COMMANDS,
        help="Apriori support threshold theta (default %(default)s)",
    )
    max_itemsets: int = _knob(
        DEFAULT_MAX_ITEMSETS, "--max-itemsets", type=int,
        commands=LEARNING_COMMANDS,
        help="per-round frequent itemset cap (default %(default)s)",
    )
    v_choice: str = _knob(
        VoterChoice.BEST.value, "--voters",
        choices=tuple(v.value for v in VoterChoice),
    )
    v_scheme: str = _knob(
        VotingScheme.AVERAGED.value, "--voting",
        choices=tuple(v.value for v in VotingScheme),
    )
    num_samples: int = _knob(
        2000, "--samples", type=int,
        help="Gibbs samples per multi-missing tuple (default %(default)s)",
    )
    burn_in: int = _knob(
        100, "--burn-in", type=int,
        help="Gibbs burn-in sweeps (default %(default)s)",
    )
    seed: int | None = _knob(
        None, "--seed", type=int,
        help="sampler seed (default: fresh entropy)",
    )
    engine: str = _knob(
        DEFAULT_ENGINE, "--engine", choices=ENGINES,
        help="Algorithm 2 kernel for single-missing tuples: 'compiled' "
        "batches voting by evidence signature; 'naive' is the scalar "
        "reference path; multi-missing tuples always run the compiled "
        "Gibbs ensemble (default: %(default)s)",
    )
    executor: str = _knob(
        DEFAULT_EXECUTOR, "--executor", choices=EXECUTORS,
        help="derivation runtime: run shards in-process ('serial') or on "
        "worker processes ('process'); results are bit-identical for "
        "either choice (default: %(default)s)",
    )
    workers: int = _knob(
        DEFAULT_WORKERS, "--workers", type=int,
        help="worker processes for '--executor process', at most one per "
        "CPU; the serial executor always runs one (default %(default)s)",
    )
    gibbs_chains: int = _knob(
        1, "--gibbs-chains", type=int,
        help="independent Gibbs chains pooled per multi-missing tuple in "
        "the ensemble kernel (default %(default)s)",
    )
    trust: tuple[str, ...] = _knob(
        (), "--trust", commands=("update",),
        parse=_split_sources, show=lambda value: ",".join(value) or None,
        help="comma-separated source ids, most trusted first; conflicting "
        "cell writes resolve in this order (unlisted sources tie last)",
    )
    update_policy: str = _knob(
        "delta", "--policy", commands=("update",), choices=UPDATE_POLICIES,
        help="re-derive mode: 'delta' carries untouched blocks over and "
        "executes only dirty shards, 'full' re-derives everything "
        "(default: %(default)s)",
    )
    failure_policy: str = _knob(
        DEFAULT_FAILURE_POLICY, "--failure-policy", choices=FAILURE_POLICIES,
        help="what an unrecoverable executor failure does: 'strict' raises "
        "with the partial shard report, 'degrade' falls back "
        "process->serial and keeps deriving (default: %(default)s)",
    )
    shard_retries: int = _knob(
        1, "--shard-retries", type=int,
        help="retries per shard with deterministic exponential backoff "
        "(default %(default)s)",
    )
    shard_deadline: float | None = _knob(
        None, "--shard-deadline", type=float,
        help="seconds one shard attempt may run before it is treated as "
        "hung and its worker pool rebuilt (default: unlimited)",
    )

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
        if isinstance(self.trust, str):
            raise ValueError(
                "trust must be a sequence of source ids, not a bare string"
            )
        set_(self, "trust", tuple(str(s) for s in self.trust))
        if self.update_policy not in UPDATE_POLICIES:
            raise ValueError(
                f"update_policy must be one of {UPDATE_POLICIES}, "
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
        """Worker count the executor will actually run
        (:func:`~repro.exec.base.effective_workers`).

        ``workers`` is legal alongside ``executor="serial"`` but ignored by
        the serial executor; progress estimates (running shards, ETA) must
        size themselves from this, not from raw ``workers``.
        """
        return effective_workers(self.executor, self.workers)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able mapping; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeriveConfig":
        """Rebuild a config from :meth:`to_dict` output (or any subset)."""
        check_config_keys(data)
        return cls(**dict(data))

    def replacing(self, **changes: Any) -> "DeriveConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)


_FIELD_NAMES = frozenset(f.name for f in fields(DeriveConfig))


def check_config_keys(keys: Iterable[str]) -> None:
    """Refuse any key that is not a :class:`DeriveConfig` field.

    A knob that no longer exists fails here too, so an old config is
    refused rather than silently run under other knobs.
    """
    unknown = set(keys) - _FIELD_NAMES
    if unknown:
        raise ValueError(
            f"unknown config keys {sorted(unknown)}; "
            f"valid keys are {sorted(_FIELD_NAMES)}"
        )


def resolve_config(
    config: "DeriveConfig | Mapping[str, Any] | None" = None,
    **overrides: Any,
) -> DeriveConfig:
    """Normalize a config (object, dict, or None) and apply ``overrides``.

    A mapping is a partial config over the defaults.  ``None``-valued
    overrides mean "not given" and are ignored.
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
