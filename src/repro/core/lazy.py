"""Lazy, query-targeted learning and inference.

The paper's conclusion names "partial materialization of probability values,
as well as ... lazy, query-targeted learning and inference" as opened-up
possibilities.  This module implements them: a :class:`LazyDeriver` learns
the MRSL model eagerly (cheap, off-line) but derives per-tuple distributions
only when a query actually touches a tuple, memoizing each derived block.

Queries whose predicate is decided by a tuple's *known* attributes never pay
for inference at all: if every completion of the tuple agrees on the
predicate, the block is not materialized.

Materialization runs through the shard runtime (:mod:`repro.exec`):
:meth:`LazyDeriver.prefetch` drops already-cached tuples, plans the rest
into signature-group and Gibbs-segment shards, and caches blocks as each
shard's result streams back — so a prefetch can use process workers
(``config.executor`` / ``config.workers``) exactly like the eager
pipeline, and partial results land in the cache even mid-run.  Multi-
missing prefetches run the ensemble kernel too: the shards carry batched
tuple groups whose chains advance in lock step (the config's Gibbs
knobs), so a cold prefetch over many multi-missing tuples costs batched
matrix ops rather than per-tuple Python loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from ..api.config import DeriveConfig, resolve_config
from ..exec.plan import resolve_base_seed
from ..exec.runtime import stream_derivation
from ..probdb.blocks import TupleBlock
from ..probdb.database import ProbabilisticDatabase
from ..relational.relation import Relation
from ..relational.tuples import RelTuple
from .engine import BatchInferenceEngine
from .learning import learn_mrsl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.updates import ChangeSet

__all__ = ["CacheInfo", "LazyDeriver"]


class CacheInfo(NamedTuple):
    """Lazy-cache counters, ``functools.lru_cache``-style.

    ``hits``/``misses`` count per-tuple lookups through :meth:`LazyDeriver.block`
    and :meth:`LazyDeriver.prefetch` (a prefetched tuple already cached is a
    hit; a pending one is a miss).  ``evictions`` counts blocks removed by
    targeted invalidation; ``size`` is the current number of cached blocks.
    """

    hits: int
    misses: int
    evictions: int
    size: int


class LazyDeriver:
    """Derives per-tuple distributions on demand, with memoization.

    ``config`` and ``rng`` mean what they mean for
    :func:`~repro.core.derive.derive_probabilistic_database`; the
    difference is *when* inference runs.
    """

    def __init__(
        self,
        relation: Relation,
        config: DeriveConfig | Mapping[str, Any] | None = None,
        *,
        rng: np.random.Generator | int | None = None,
    ):
        cfg = resolve_config(config)
        self.config = cfg
        self.relation = relation
        self.model = learn_mrsl(
            relation,
            support_threshold=cfg.support_threshold,
            max_itemsets=cfg.max_itemsets,
        ).model
        # One base seed for the deriver's lifetime: per-segment Gibbs seeds
        # derive from it plus each segment's content key, so a tuple's block
        # does not depend on *when* (or with how many workers) it was
        # materialized — only on which tuples shared its prefetch.
        self._base_seed = resolve_base_seed(rng, cfg.seed)
        self._batch_engine = BatchInferenceEngine(
            self.model, cfg.v_choice, cfg.v_scheme
        )
        self._cache: dict[RelTuple, TupleBlock] = {}
        #: number of blocks actually derived (the partial-materialization metric)
        self.materialized = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- cache bookkeeping -----------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Current hit/miss/eviction counters and cache size."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._cache),
        )

    def evict(self, tuples: Iterable[RelTuple]) -> int:
        """Drop the cached blocks of ``tuples`` (targeted invalidation).

        Returns how many entries were actually removed; absent tuples are
        ignored.  ``materialized`` keeps its historical count — it measures
        derivation work done, not cache residency.
        """
        removed = 0
        for t in tuples:
            if self._cache.pop(t, None) is not None:
                removed += 1
        self._evictions += removed
        return removed

    def apply_changeset(self, changeset: "ChangeSet", trust: tuple[str, ...] | None = None) -> int:
        """Apply a base-table ChangeSet and evict the dirty cached blocks.

        The deriver's relation is updated in place (its update log grows)
        and every cached block whose base tuple content was updated or
        retracted is evicted, so the next access re-derives against the new
        table.  The model is *not* re-learned — the lazy deriver serves the
        model it trained at construction, matching the delta-derive policy.
        Returns the number of evicted blocks.  Trust defaults to
        ``config.trust``.
        """
        outcome = self.relation.apply_changeset(
            changeset, trust=self.config.trust if trust is None else trust
        )
        return self.evict(outcome.touched_tuples())

    # -- block derivation ------------------------------------------------------

    def block(self, t: RelTuple) -> TupleBlock:
        """Derive (or fetch) the block for one incomplete tuple."""
        cached = self._cache.get(t)
        if cached is not None:
            self._hits += 1
            return cached
        self.prefetch([t])
        return self._cache[t]

    def prefetch(self, tuples: list[RelTuple]) -> None:
        """Materialize many blocks at once.

        Tuples already cached (and duplicates within the batch) are dropped
        *before* planning, so a warm prefetch costs nothing.  The rest are
        planned into shards — multi-missing tuples run their own chains in
        one lock-step Gibbs ensemble per shard (no samples are shared across
        tuples), single-missing tuples are served as signature-grouped
        batches by the configured engine — and executed by the runtime,
        caching each shard's blocks as it completes.  Each requested tuple
        counts once toward :meth:`cache_info`: cached ones as hits, distinct
        pending ones as misses.
        """
        pending: list[RelTuple] = []
        seen: set[RelTuple] = set()
        for t in tuples:
            if t in self._cache:
                self._hits += 1
            elif t not in seen:
                seen.add(t)
                pending.append(t)
                self._misses += 1
        if not pending:
            return
        # Tiny batches (the tuple-at-a-time block() path) are not worth a
        # pool: run them serially in-process.  Results are bit-identical
        # either way, so this is purely a cost decision.
        executor = "serial" if len(pending) == 1 else None
        stream = stream_derivation(
            pending,
            self.model,
            self.config,
            rng=self._base_seed,
            batch_engine=self._batch_engine,
            executor=executor,
        )
        try:
            for result in stream:
                for idx, block in zip(result.indices, result.blocks):
                    t = pending[idx]
                    if t not in self._cache:
                        self._cache[t] = block
                        self.materialized += 1
        finally:
            # If the consumer abandons us mid-stream (a caching callback
            # raising, Ctrl-C), close the generator so the executors' pool
            # context managers run and worker processes are reaped.
            stream.close()

    # -- query-targeted evaluation ------------------------------------------------

    def _decided_without_inference(
        self, t: RelTuple, predicate: Callable[[RelTuple], bool]
    ) -> bool | None:
        """Evaluate the predicate if all completions agree; else None.

        Cheap short-circuit: try the two "extreme" completions first and
        fall back to a scan of the completion space only when it is small.
        """
        from itertools import islice, product

        schema = t.schema
        domains = [schema[p].domain for p in t.missing_positions]
        names = [schema[p].name for p in t.missing_positions]
        space = 1
        for d in domains:
            space *= len(d)
        if space > 4096:
            return None  # too large to decide cheaply; treat as undecided
        result: bool | None = None
        for combo in product(*domains):
            value = predicate(t.complete_with(dict(zip(names, combo))))
            if result is None:
                result = value
            elif result != value:
                return None
        return result

    def expected_count(self, predicate: Callable[[RelTuple], bool]) -> float:
        """Expected number of tuples satisfying ``predicate``.

        Only tuples whose outcome genuinely depends on missing values have
        their distributions derived.
        """
        total = 0.0
        for t in self.relation.complete_part():
            total += 1.0 if predicate(t) else 0.0
        undecided = []
        for t in self.relation.incomplete_part():
            decided = self._decided_without_inference(t, predicate)
            if decided is None:
                undecided.append(t)
            elif decided:
                total += 1.0
        self.prefetch(undecided)
        for t in undecided:
            block = self.block(t)
            total += sum(
                p for completed, p in block.completions() if predicate(completed)
            )
        return total

    def materialize_all(self) -> ProbabilisticDatabase:
        """Fall back to the eager result: every block derived."""
        incomplete = list(self.relation.incomplete_part())
        self.prefetch(incomplete)
        return ProbabilisticDatabase(
            self.relation.schema,
            certain=list(self.relation.complete_part()),
            blocks=[self.block(t) for t in incomplete],
        )

    def __repr__(self) -> str:
        return (
            f"LazyDeriver({self.relation.num_incomplete} incomplete tuples, "
            f"{self.materialized} materialized)"
        )
