"""The headline API: derive a probabilistic database from an incomplete relation.

This module ties the whole pipeline together, as in the paper's abstract:
learn the MRSL ensemble from the complete part of the data, estimate ``Δt``
for every incomplete tuple — Algorithm 2 when a single attribute is missing,
workload-driven Gibbs sampling (Algorithm 3) when several are — and assemble
the result into a disjoint-independent probabilistic database.

Since the sharded runtime landed, every derivation path here runs through
:mod:`repro.exec`: the planner partitions incomplete tuples into shards
(evidence-signature groups for Algorithm 2, subsumption components for
Algorithm 3), the configured executor runs them — serially by default, on
worker processes when ``config.executor``/``config.workers`` say so — and
the collector reassembles blocks in relation order.  Results are
bit-identical for every executor and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..exec.base import ExecReport, ShardPlan, ShardResult
from ..exec.plan import Workload
from ..exec.runtime import execute_delta, execute_derivation
from ..probdb.blocks import TupleBlock
from ..probdb.database import ProbabilisticDatabase
from ..probdb.invalidate import CarryStore, RunLayout
from ..relational.relation import Relation
from ..relational.tuples import MISSING_CODE, trusted_rows
from .engine import BatchInferenceEngine
from .learning import LearnResult, learn_mrsl
from .mrsl import MRSLModel
from .tuple_dag import SamplingStats

# Imported last: repro.api.config reads its defaults from core leaf modules
# (engine, itemsets, inference) and repro.exec.base, all fully initialized
# by now.
from ..api.config import DeriveConfig, resolve_config

__all__ = [
    "DeriveResult",
    "derive_probabilistic_database",
    "single_missing_blocks",
]


@dataclass
class DeriveResult:
    """A derived probabilistic database plus the model and cost diagnostics.

    ``learn_result`` is ``None`` when derivation reused a pre-learned model
    (the session / learn-once path) instead of running Algorithm 1.
    ``exec_report`` carries the shard runtime's per-shard timing and
    placement diagnostics.
    """

    database: ProbabilisticDatabase
    model: MRSLModel
    learn_result: LearnResult | None
    sampling_stats: SamplingStats
    #: what the run planned and derived, by distinct row; a delta re-derive
    #: from this result builds its carry store from it
    layout: RunLayout = field(repr=False, compare=False)
    exec_report: ExecReport | None = None
    #: the base seed the run's multi shards derived from (None when the
    #: workload had no multi-missing tuples); a later delta re-derive pins
    #: its dirty shards to this seed so carried blocks stay consistent
    base_seed: int | None = None
    #: the run's engine, with the CPDs of the shards the parent ran (empty
    #: when pool workers ran every shard); a delta re-derive from this
    #: result starts from a copy of its memos
    engine: BatchInferenceEngine | None = field(
        default=None, repr=False, compare=False
    )


def single_missing_blocks(
    tuples,
    model: MRSLModel,
    *,
    engine: str | None = None,
    batch_engine: BatchInferenceEngine | None = None,
    config: DeriveConfig | Mapping[str, Any] | None = None,
) -> list[TupleBlock]:
    """Blocks for a batch of single-missing tuples under the chosen engine.

    The batch is planned into evidence-signature shards and run by the
    executor ``config`` names (serial in-process by default).  Within each
    shard the compiled path serves all signature groups with one batched
    match + combine per attribute; the naive path loops tuple-at-a-time and
    is kept as the correctness oracle.  Every knob comes from ``config``
    (itself defaulting to :class:`~repro.api.config.DeriveConfig`);
    ``engine``, when given, overrides ``config.engine``.
    """
    cfg = resolve_config(config, engine=engine)
    tuples = list(tuples)
    for t in tuples:
        if t.num_missing != 1:
            raise ValueError(
                f"expected exactly one missing attribute, tuple has "
                f"{t.num_missing}"
            )
    outcome = execute_derivation(tuples, model, cfg, batch_engine=batch_engine)
    return outcome.blocks


def derive_probabilistic_database(
    relation: Relation,
    config: DeriveConfig | Mapping[str, Any] | None = None,
    *,
    rng: np.random.Generator | int | None = None,
    model: MRSLModel | None = None,
    batch_engine: BatchInferenceEngine | None = None,
    previous: DeriveResult | None = None,
    on_plan: Callable[[ShardPlan], None] | None = None,
    on_shard: Callable[[ShardResult], None] | None = None,
    should_stop: Callable[[], bool] | None = None,
    resume_carry: CarryStore | None = None,
) -> DeriveResult:
    """Derive the disjoint-independent probabilistic model for ``relation``.

    Parameters
    ----------
    relation:
        A relation mixing complete and incomplete tuples.  The complete part
        trains the MRSL; every incomplete tuple becomes a block.
    config:
        The :class:`~repro.api.config.DeriveConfig` (or a mapping of its
        fields; ``None`` for the defaults) carrying every knob: Algorithm 1
        mining (``support_threshold``, ``max_itemsets``), Algorithm 2
        voting (``v_choice``, ``v_scheme``, ``engine``), Algorithm 3 Gibbs
        (``num_samples``, ``burn_in``, ``gibbs_chains``; multi-missing
        tuples always run the ensemble kernel), the shard runtime
        (``executor``, ``workers``, the failure knobs) and the update mode
        (``update_policy``).
        Results are bit-identical whichever runtime executes the shards.
    rng:
        Seed or generator the per-segment Gibbs seeds derive from; defaults to
        ``config.seed``.
    model:
        A pre-learned MRSL model.  When given, Algorithm 1 is skipped and
        the result's ``learn_result`` is ``None`` — the learn-once /
        serve-many path used by :class:`~repro.api.session.Session`.
    batch_engine:
        A warm :class:`BatchInferenceEngine` over ``model`` to reuse across
        derivations (its CPD cache carries over on the serial path).
    previous:
        Incremental re-derivation after a base-table update.  ``previous``
        is the :class:`DeriveResult` of the pre-update table; its model is
        reused (learning is skipped — updates never re-learn the MRSL) with
        the lattices it compiled, and,
        under the ``"delta"`` ``config.update_policy``, blocks whose lineage
        the update did not touch are carried over verbatim while only dirty
        shards execute, starting from a copy of its engine's CPD memos —
        pinned to the previous run's base seed, so the result is
        bit-identical to a from-scratch derive of the updated relation
        under that seed.  The ``"full"`` policy re-derives
        everything but still reuses the model and base seed, giving the
        same result the slow way.
    on_plan, on_shard, should_stop:
        Progress and cancellation hooks, forwarded to
        :func:`~repro.exec.runtime.execute_derivation`: ``on_plan`` sees the
        shard plan before execution, ``on_shard`` every completed shard, and
        ``should_stop`` is polled at shard boundaries — returning true
        raises :class:`~repro.exec.base.DerivationCancelled` and no partial
        database is built.
    resume_carry:
        A :class:`~repro.probdb.invalidate.CarryStore` rebuilt from a
        durable job journal (:meth:`~repro.jobs.store.JobStore.load_carry`):
        shards the interrupted run completed are carried verbatim, only the
        rest execute, and the journaled base seed pins the plan — the
        resumed result is bit-identical to an uninterrupted run.  Mutually
        exclusive with ``previous``.

    Returns a :class:`DeriveResult`; its ``database`` holds the complete
    tuples as certain rows and one block per incomplete tuple.
    """
    cfg = resolve_config(config)
    if previous is not None:
        # Updates never re-learn the MRSL: the previous model keeps serving
        # (a model change would dirty every block).  Pin the previous base
        # seed so both policies reproduce the same from-scratch result.
        if model is None:
            model = previous.model
        if rng is None and previous.base_seed is not None:
            rng = previous.base_seed
        if (
            batch_engine is None
            and cfg.update_policy == "delta"
            and previous.engine is not None
            and previous.engine.model is model
        ):
            # A delta carries the CPDs the previous run computed, as it
            # carries its blocks: a copy of its memos, so the previous
            # result's engine never changes.
            batch_engine = previous.engine.copy()
    if rng is None:
        rng = cfg.seed
    learn_result = None
    if model is None:
        learn_result = learn_mrsl(
            relation,
            support_threshold=cfg.support_threshold,
            max_itemsets=cfg.max_itemsets,
        )
        model = learn_result.model

    # Workload order: single-missing rows first, then multi-missing, each
    # in relation order — the block order this function has always
    # produced.  Each distinct row is planned, run and bound once.
    codes = relation.codes
    missing = (codes == MISSING_CODE).sum(axis=1)
    order = np.concatenate([np.flatnonzero(missing == 1), np.flatnonzero(missing > 1)])
    workload = Workload.from_codes(relation.schema, codes[order])

    if resume_carry is not None and previous is not None:
        raise ValueError("resume_carry cannot be combined with previous")
    carry: CarryStore | None = resume_carry
    if previous is not None and cfg.update_policy == "delta":
        carry = CarryStore.from_layout(previous.layout, previous.base_seed)
    hooks = dict(
        rng=rng,
        batch_engine=batch_engine,
        on_plan=on_plan,
        on_shard=on_shard,
        should_stop=should_stop,
    )
    if carry is not None:
        outcome = execute_delta(workload, model, cfg, carry, **hooks)
    else:
        outcome = execute_derivation(workload, model, cfg, **hooks)

    certain = codes[missing == 0]
    certain.setflags(write=False)
    database = ProbabilisticDatabase._trusted(
        relation.schema, trusted_rows(relation.schema, certain), outcome.blocks
    )
    return DeriveResult(
        database=database,
        model=model,
        learn_result=learn_result,
        sampling_stats=outcome.stats,
        exec_report=outcome.report,
        base_seed=outcome.plan.base_seed,
        engine=outcome.engine,
        layout=outcome.layout,
    )
