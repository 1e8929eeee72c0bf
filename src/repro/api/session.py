"""The :class:`Session` facade: learn an MRSL once, serve it many times.

A session holds one :class:`~repro.api.config.DeriveConfig`, a registry of
named MRSL models (each with a warm, CPD-cache-carrying
:class:`~repro.core.engine.BatchInferenceEngine`), and a registry of named
derived databases.  The three serving entry points are:

* :meth:`Session.derive`      — relation in, probabilistic database out,
  reusing the registered model and warm engine instead of re-learning;
* :meth:`Session.infer_batch` — Algorithm 2 distributions for a batch of
  single-missing tuples straight from the warm engine;
* :meth:`Session.query`       — evaluate a lambda-free, serializable query
  spec (or a plain dict of one) against a derived database.

Models persist through :mod:`repro.core.persistence`
(:meth:`Session.save_model` / :meth:`Session.load_model`), so the off-line
learning step and the on-line serving step can live in different processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core.derive import DeriveResult, derive_probabilistic_database
from ..core.engine import BatchInferenceEngine
from ..core.learning import learn_mrsl
from ..core.mrsl import MRSLModel
from ..core.persistence import load_model as _load_model
from ..core.persistence import save_model as _save_model
from ..jobs.progress import ProgressSnapshot, ProgressTracker
from ..probdb.database import ProbabilisticDatabase
from ..probdb.distribution import Distribution
from ..probdb.engine import QueryEngine, ResultTuple
from ..relational.relation import ApplyOutcome, Relation
from ..relational.tuples import RelTuple
from ..relational.updates import ChangeSet
from .config import DeriveConfig, check_config_keys, resolve_config
from .query import Predicate, QuerySpec, SelectionQuery, query_from_dict

__all__ = ["DEFAULT_NAME", "Session", "SessionError", "UpdateResult"]

#: Registry key used when the caller does not name a model or database.
DEFAULT_NAME = "default"


class SessionError(LookupError):
    """An unknown model or database name was referenced."""


@dataclass
class UpdateResult:
    """What one :meth:`Session.apply_updates` call did.

    ``outcome`` is the relational-level application record (rows touched,
    conflicts, ties); ``result`` is the re-derived database now registered
    under ``name``; ``policy`` says whether the delta or the full path
    served it.
    """

    name: str
    policy: str
    outcome: ApplyOutcome
    result: DeriveResult

    @property
    def conflicts(self):
        return self.outcome.conflicts

    @property
    def carried_over(self) -> int:
        report = self.result.exec_report
        return 0 if report is None else report.carried_over


class Session:
    """Learn-once / serve-many facade over the derivation pipeline."""

    def __init__(
        self, config: DeriveConfig | Mapping[str, Any] | None = None
    ):
        self.config = resolve_config(config)
        self._models: dict[str, MRSLModel] = {}
        self._engines: dict[str, BatchInferenceEngine] = {}
        self._results: dict[str, DeriveResult] = {}
        self._relations: dict[str, Relation] = {}

    def effective_config(
        self, config: DeriveConfig | Mapping[str, Any] | None = None
    ) -> DeriveConfig:
        """The config a call with this per-call ``config`` runs under.

        ``None`` is the session's config and a :class:`DeriveConfig`
        replaces it; a mapping is a partial override, so unspecified knobs
        keep their session values, not the global defaults.  Every
        session entry point resolves its ``config`` here, and the service
        layer uses it to size progress estimates with the worker count the
        derivation will use.
        """
        if config is None:
            return self.config
        if isinstance(config, DeriveConfig):
            return config
        check_config_keys(config)
        return resolve_config(self.config, **dict(config))

    # -- model registry ----------------------------------------------------

    @property
    def models(self) -> tuple[str, ...]:
        """Registered model names, sorted."""
        return tuple(sorted(self._models))

    @property
    def databases(self) -> tuple[str, ...]:
        """Derived database names, sorted."""
        return tuple(sorted(self._results))

    def register_model(self, name: str, model: MRSLModel) -> MRSLModel:
        """Register (or replace) a model; its warm engine rebuilds lazily."""
        self._models[name] = model
        self._engines.pop(name, None)
        return model

    def model(self, name: str = DEFAULT_NAME) -> MRSLModel:
        try:
            return self._models[name]
        except KeyError:
            raise SessionError(
                f"no model {name!r}; registered: {list(self.models)}"
            ) from None

    def learn(
        self,
        relation: Relation,
        model: str = DEFAULT_NAME,
        config: DeriveConfig | Mapping[str, Any] | None = None,
    ) -> MRSLModel:
        """Run Algorithm 1 on ``relation`` and register the result."""
        cfg = self.effective_config(config)
        result = learn_mrsl(
            relation,
            support_threshold=cfg.support_threshold,
            max_itemsets=cfg.max_itemsets,
        )
        return self.register_model(model, result.model)

    def save_model(self, path: str | Path, model: str = DEFAULT_NAME) -> None:
        """Persist a registered model as JSON (``core.persistence``)."""
        _save_model(self.model(model), path)

    def load_model(
        self, path: str | Path, model: str = DEFAULT_NAME
    ) -> MRSLModel:
        """Load a persisted model and register it under ``model``."""
        return self.register_model(model, _load_model(path))

    def engine(self, model: str = DEFAULT_NAME) -> BatchInferenceEngine:
        """The warm batch-inference engine for a registered model.

        Built on first use and kept for the session's lifetime, so its
        compiled structures and CPD cache are shared by every derive and
        infer call that touches the model.
        """
        engine = self._engines.get(model)
        if engine is None:
            engine = BatchInferenceEngine(
                self.model(model), self.config.v_choice, self.config.v_scheme
            )
            self._engines[model] = engine
        return engine

    # -- serving entry points ----------------------------------------------

    def derive(
        self,
        relation: Relation,
        name: str = DEFAULT_NAME,
        model: str | None = None,
        config: DeriveConfig | Mapping[str, Any] | None = None,
        rng: np.random.Generator | int | None = None,
        progress: (
            ProgressTracker | Callable[[ProgressSnapshot], None] | None
        ) = None,
        cancel: Callable[[], bool] | None = None,
        resume_carry: "Any | None" = None,
    ) -> DeriveResult:
        """Derive ``relation``'s probabilistic database and register it.

        Uses the registered model named ``model`` (default: ``name``),
        learning and registering it from ``relation`` first if absent — so
        the first call learns and every later call only infers.  The result
        is registered as database ``name`` for :meth:`query`.

        ``config`` overrides the session's config for this call (see
        :meth:`effective_config`): e.g. ``config={"executor": "process",
        "workers": 4}`` fans the derivation out across worker processes,
        with bit-identical results whichever runtime serves them.

        ``progress`` observes the derivation as it runs: pass a
        :class:`~repro.jobs.progress.ProgressTracker` to drive yourself, or
        a plain callable to receive a
        :class:`~repro.jobs.progress.ProgressSnapshot` after planning and
        after every completed shard.  ``cancel`` is polled at shard
        boundaries; returning true raises
        :class:`~repro.exec.base.DerivationCancelled` and the session
        registers nothing — a cancelled derive never leaves a partial
        database behind.

        ``resume_carry`` threads a journal-rebuilt
        :class:`~repro.probdb.invalidate.CarryStore` into the derivation
        (the durable-job resume path): completed shards of an interrupted
        run are served verbatim, only the rest execute.
        """
        cfg = self.effective_config(config)
        tracker = self._as_tracker(progress, cfg.parallelism)
        model_name = name if model is None else model
        if model_name not in self._models:
            self.learn(relation, model=model_name, config=cfg)
        result = derive_probabilistic_database(
            relation,
            config=cfg,
            rng=rng,
            model=self._models[model_name],
            batch_engine=self.engine(model_name),
            on_plan=None if tracker is None else tracker.on_plan,
            on_shard=None if tracker is None else tracker.on_shard,
            should_stop=cancel,
            resume_carry=resume_carry,
        )
        self._results[name] = result
        # Keep a private copy of the base table: apply_updates mutates it
        # under ChangeSets without aliasing the caller's relation.
        self._relations[name] = relation.copy()
        return result

    def relation(self, name: str = DEFAULT_NAME) -> Relation:
        """The session's copy of a derived database's base table."""
        try:
            return self._relations[name]
        except KeyError:
            raise SessionError(
                f"no base relation for {name!r}; "
                f"derived: {list(self.databases)}"
            ) from None

    def apply_updates(
        self,
        changeset: ChangeSet | Mapping[str, Any],
        name: str = DEFAULT_NAME,
        config: DeriveConfig | Mapping[str, Any] | None = None,
        progress: (
            ProgressTracker | Callable[[ProgressSnapshot], None] | None
        ) = None,
        cancel: Callable[[], bool] | None = None,
    ) -> UpdateResult:
        """Apply a ChangeSet to database ``name``'s base table and re-derive.

        The session's stored base relation takes the ChangeSet (conflicting
        writes resolved by ``config.trust``, ties applied first-writer-wins
        and reported in the result), then the registered database re-derives
        under ``config.update_policy``: ``"delta"`` carries every block whose
        lineage the update did not touch over verbatim and executes only
        dirty shards, ``"full"`` re-derives everything.  Both reuse the
        model and the previous run's base seed, so they produce the same
        database.  The update commits — relation, update log, and derived
        result together — only after the re-derive completes; a cancelled
        update leaves the session exactly as it was.
        """
        cfg = self.effective_config(config)
        previous = self.result(name)
        tracker = self._as_tracker(progress, cfg.parallelism)
        working = self.relation(name).copy()
        outcome = working.apply_changeset(changeset, trust=cfg.trust)
        # Reuse the warm engine of whichever registered model served this
        # database (the derive may have used a model name != database name).
        model_name = next(
            (k for k, m in self._models.items() if m is previous.model), None
        )
        result = derive_probabilistic_database(
            working,
            config=cfg,
            model=previous.model,
            batch_engine=None if model_name is None else self.engine(model_name),
            previous=previous,
            on_plan=None if tracker is None else tracker.on_plan,
            on_shard=None if tracker is None else tracker.on_shard,
            should_stop=cancel,
        )
        self._results[name] = result
        self._relations[name] = working
        return UpdateResult(
            name=name,
            policy=cfg.update_policy,
            outcome=outcome,
            result=result,
        )

    @staticmethod
    def _as_tracker(
        progress: (
            ProgressTracker | Callable[[ProgressSnapshot], None] | None
        ),
        workers: int,
    ) -> ProgressTracker | None:
        """Normalize a ``progress=`` argument into a tracker (or None)."""
        if progress is None or isinstance(progress, ProgressTracker):
            return progress
        if not callable(progress):
            raise TypeError(
                "progress must be a ProgressTracker or a callable taking a "
                f"ProgressSnapshot, got {type(progress).__name__}"
            )
        callback = progress
        return ProgressTracker(
            workers=workers,
            on_event=lambda kind, snapshot, *rest: callback(snapshot),
        )

    def infer_batch(
        self,
        tuples: Iterable[RelTuple],
        model: str = DEFAULT_NAME,
    ) -> list[Distribution]:
        """Algorithm 2 distributions for single-missing tuples, batched."""
        return self.engine(model).infer_batch(list(tuples))

    # -- derived databases and queries -------------------------------------

    def result(self, name: str = DEFAULT_NAME) -> DeriveResult:
        try:
            return self._results[name]
        except KeyError:
            raise SessionError(
                f"no derived database {name!r}; "
                f"derived: {list(self.databases)}"
            ) from None

    def database(self, name: str = DEFAULT_NAME) -> ProbabilisticDatabase:
        return self.result(name).database

    def query_engine(self, name: str = DEFAULT_NAME) -> QueryEngine:
        """A lineage query engine over a derived database."""
        return QueryEngine(self.database(name))

    def query(
        self,
        spec: QuerySpec | Predicate | Mapping[str, Any],
        database: str = DEFAULT_NAME,
    ) -> list[ResultTuple]:
        """Evaluate a query spec (or its JSON dict, or a bare predicate).

        A bare :class:`~repro.api.query.Predicate` is treated as a
        selection over all attributes.
        """
        if isinstance(spec, Mapping):
            spec = query_from_dict(spec)
        elif isinstance(spec, Predicate):
            spec = SelectionQuery(where=spec)
        elif not isinstance(spec, QuerySpec):
            raise TypeError(
                f"spec must be a QuerySpec, Predicate, or mapping, "
                f"got {type(spec).__name__}"
            )
        return spec.run(self.query_engine(database))

    def __repr__(self) -> str:
        return (
            f"Session({len(self._models)} models, "
            f"{len(self._results)} databases, config={self.config})"
        )
