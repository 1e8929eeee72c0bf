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
threads or worker processes when ``config.executor``/``config.workers`` say
so — and the collector reassembles blocks in relation order.  Results are
bit-identical for every executor and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..exec.base import ExecReport, ShardPlan, ShardResult
from ..exec.executors import Executor
from ..exec.runtime import execute_delta, execute_derivation, multi_batch_for
from ..probdb.blocks import TupleBlock
from ..probdb.database import ProbabilisticDatabase
from ..probdb.invalidate import CarryStore
from ..relational.relation import Relation
from .engine import BatchInferenceEngine
from .inference import VoterChoice, VotingScheme
from .learning import LearnResult, learn_mrsl
from .mrsl import MRSLModel
from .tuple_dag import SamplingStats

# Imported last: repro.api.config reads its defaults from core leaf modules
# (engine, itemsets, inference, tuple_dag) and repro.exec.base, all fully
# initialized by now.
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
    exec_report: ExecReport | None = None
    #: the base seed the run's multi shards derived from (None when the
    #: workload had no multi-missing tuples); a later delta re-derive pins
    #: its dirty shards to this seed so carried blocks stay consistent
    base_seed: int | None = None


def _check_executor_conflict(
    executor: Executor | str | None, workers: int | None
) -> None:
    """A pre-built executor instance carries its own worker count."""
    if isinstance(executor, Executor) and workers is not None:
        raise ValueError(
            "workers cannot be combined with a pre-built Executor instance "
            f"(it already runs {executor.workers} workers); pass the "
            "executor by name instead"
        )


def single_missing_blocks(
    tuples,
    model: MRSLModel,
    v_choice: VoterChoice | str | None = None,
    v_scheme: VotingScheme | str | None = None,
    engine: str | None = None,
    batch_engine: BatchInferenceEngine | None = None,
    config: DeriveConfig | None = None,
    executor: Executor | str | None = None,
    workers: int | None = None,
) -> list[TupleBlock]:
    """Blocks for a batch of single-missing tuples under the chosen engine.

    The batch is planned into evidence-signature shards and run by the
    configured executor (serial in-process by default; ``executor`` /
    ``workers`` route it to a thread or process pool).  Within each shard
    the compiled path serves all signature groups with one batched match +
    combine per attribute; the naive path loops tuple-at-a-time and is
    kept as the correctness oracle.  Voting and engine knobs default to
    ``config`` (itself defaulting to :class:`~repro.api.config.DeriveConfig`);
    explicit arguments win.
    """
    _check_executor_conflict(executor, workers)
    cfg = resolve_config(
        config,
        v_choice=v_choice,
        v_scheme=v_scheme,
        engine=engine,
        workers=workers,
        executor=None if isinstance(executor, Executor) else executor,
    )
    tuples = list(tuples)
    for t in tuples:
        if t.num_missing != 1:
            raise ValueError(
                f"expected exactly one missing attribute, tuple has "
                f"{t.num_missing}"
            )
    outcome = execute_derivation(
        tuples,
        model,
        cfg,
        batch_engine=batch_engine,
        executor=executor if isinstance(executor, Executor) else None,
    )
    return outcome.blocks


def derive_probabilistic_database(
    relation: Relation,
    support_threshold: float | None = None,
    max_itemsets: int | None = None,
    v_choice: VoterChoice | str | None = None,
    v_scheme: VotingScheme | str | None = None,
    num_samples: int | None = None,
    burn_in: int | None = None,
    strategy: str | None = None,
    rng: np.random.Generator | int | None = None,
    engine: str | None = None,
    config: DeriveConfig | None = None,
    model: MRSLModel | None = None,
    batch_engine: BatchInferenceEngine | None = None,
    executor: Executor | str | None = None,
    workers: int | None = None,
    gibbs_chains: int | None = None,
    gibbs_vectorized: bool | None = None,
    previous: DeriveResult | None = None,
    update_policy: str | None = None,
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
    support_threshold, max_itemsets:
        Algorithm 1 mining parameters (``theta``, ``maxItemsets``).
    v_choice, v_scheme:
        Algorithm 2 voting configuration, also used inside Gibbs steps.
    num_samples, burn_in:
        Gibbs chain lengths (``N`` and ``B`` of Algorithm 3) for tuples with
        two or more missing values.
    strategy:
        Multi-attribute workload strategy; see
        :func:`~repro.core.tuple_dag.workload_sampling`.
    rng:
        Seed or generator the per-shard Gibbs seeds derive from; defaults to
        ``config.seed``.
    engine:
        ``"compiled"`` (default) batches single-missing inference by
        evidence signature and serves Gibbs CPDs from the compiled rule
        matrix; ``"naive"`` keeps the scalar reference path.
    config:
        A :class:`~repro.api.config.DeriveConfig` supplying every knob not
        given explicitly (explicit keyword arguments win).
    model:
        A pre-learned MRSL model.  When given, Algorithm 1 is skipped and
        the result's ``learn_result`` is ``None`` — the learn-once /
        serve-many path used by :class:`~repro.api.session.Session`.
    batch_engine:
        A warm :class:`BatchInferenceEngine` over ``model`` to reuse across
        derivations (its CPD cache carries over on the serial path).
    executor, workers:
        Shard runtime selection (override ``config.executor`` /
        ``config.workers``): ``"serial"``, ``"thread"``, or ``"process"``,
        and the pool size.  ``executor`` also accepts a pre-built
        :class:`~repro.exec.executors.Executor` instance.  Results are
        bit-identical whichever runtime executes the shards.
    gibbs_chains, gibbs_vectorized:
        Multi-missing kernel selection (override the config fields of the
        same names): ``gibbs_vectorized`` picks the lock-step ensemble
        kernel (default) or the scalar tuple-DAG oracle, ``gibbs_chains``
        pools that many chains per tuple into the ``num_samples`` budget.
    previous, update_policy:
        Incremental re-derivation after a base-table update.  ``previous``
        is the :class:`DeriveResult` of the pre-update table; its model is
        reused (learning is skipped — updates never re-learn the MRSL) and,
        under the ``"delta"`` policy (``update_policy`` overriding
        ``config.update_policy``), blocks whose lineage the update did not
        touch are carried over verbatim while only dirty shards execute —
        pinned to the previous run's base seed, so the result is
        bit-identical to a from-scratch derive of the updated relation
        under that seed.  The ``"full"`` policy re-derives everything but
        still reuses the model and base seed, giving the same result the
        slow way.
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
    _check_executor_conflict(executor, workers)
    cfg = resolve_config(
        config,
        support_threshold=support_threshold,
        max_itemsets=max_itemsets,
        v_choice=v_choice,
        v_scheme=v_scheme,
        num_samples=num_samples,
        burn_in=burn_in,
        strategy=strategy,
        engine=engine,
        workers=workers,
        executor=None if isinstance(executor, Executor) else executor,
        gibbs_chains=gibbs_chains,
        gibbs_vectorized=gibbs_vectorized,
    )
    policy = update_policy if update_policy is not None else cfg.update_policy
    if update_policy is not None and update_policy not in ("delta", "full"):
        raise ValueError(
            f"update_policy must be 'delta' or 'full', got {update_policy!r}"
        )
    if previous is not None:
        # Updates never re-learn the MRSL: the previous model keeps serving
        # (a model change would dirty every block).  Pin the previous base
        # seed so both policies reproduce the same from-scratch result.
        if model is None:
            model = previous.model
        if rng is None and previous.base_seed is not None:
            rng = previous.base_seed
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

    # Workload order: single-missing tuples first, then multi-missing, each
    # in relation order — the block order this function has always produced.
    single = []
    multi = []
    for t in relation.incomplete_part():
        if t.num_missing == 1:
            single.append(t)
        else:
            multi.append(t)

    if resume_carry is not None and previous is not None:
        raise ValueError("resume_carry cannot be combined with previous")
    carry: CarryStore | None = resume_carry
    if previous is not None and policy == "delta":
        carry = CarryStore.from_database(
            previous.database,
            previous.base_seed,
            multi_batch=multi_batch_for(cfg),
        )
    if carry is not None:
        outcome = execute_delta(
            single + multi,
            model,
            cfg,
            carry,
            rng=rng,
            batch_engine=batch_engine,
            executor=executor if isinstance(executor, Executor) else None,
            on_plan=on_plan,
            on_shard=on_shard,
            should_stop=should_stop,
        )
    else:
        outcome = execute_derivation(
            single + multi,
            model,
            cfg,
            rng=rng,
            batch_engine=batch_engine,
            executor=executor if isinstance(executor, Executor) else None,
            on_plan=on_plan,
            on_shard=on_shard,
            should_stop=should_stop,
        )

    database = ProbabilisticDatabase(
        relation.schema,
        certain=list(relation.complete_part()),
        blocks=outcome.blocks,
    )
    return DeriveResult(
        database=database,
        model=model,
        learn_result=learn_result,
        sampling_stats=outcome.stats,
        exec_report=outcome.report,
        base_seed=outcome.plan.base_seed,
    )
