"""Tests for the update-aware incremental derivation runtime.

The acceptance properties:

* after a ChangeSet touching k of N tuples, a delta re-derive is
  **bit-identical** to a from-scratch derive of the updated relation under
  the same model and base seed — for serial and process executors;
* the planner replans only shards whose lineage the ChangeSet touched:
  everything else is carried over verbatim and shows up in
  ``ExecReport.carried_over``;
* the same guarantee flows through ``Session.apply_updates``, the
  ``/v1/update`` service endpoint (sync and async), and ``repro update``
  on the CLI.
"""

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.api.service import (
    InferenceService,
    ServiceError,
    UpdateRequest,
    UpdateResponse,
)
from repro.api.session import Session
from repro.bench.masking import mask_relation
from repro.core import BatchInferenceEngine, derive_probabilistic_database
from repro.core.lazy import LazyDeriver
from repro.core.learning import learn_mrsl
from repro.datasets.census import load_census
from repro.probdb import CarryStore
from repro.relational import ChangeSet, Relation, make_tuple, retract, update
from repro.relational.tuples import MISSING_CODE, RelTuple
from tests.conftest import FIG1_ROWS
from tests.test_exec import assert_identical_databases

FIG1_SCHEMA = {
    "age": ["20", "30", "40"],
    "edu": ["HS", "BS", "MS"],
    "inc": ["50K", "100K"],
    "nw": ["100K", "500K"],
}
CENSUS_CONFIG = DeriveConfig(
    support_threshold=0.02, num_samples=30, burn_in=5, seed=11
)


@pytest.fixture(scope="module")
def census_relation():
    """A census sample mixing complete, single- and multi-missing tuples."""
    rng = np.random.default_rng(17)
    train, _ = load_census(220, rng)
    test, _ = load_census(24, rng)
    masked = mask_relation(test, (1, 1, 1, 2), rng)
    return Relation(train.schema, list(train) + list(masked))


@pytest.fixture(scope="module")
def census_model(census_relation):
    return learn_mrsl(census_relation, support_threshold=0.02).model


@pytest.fixture(scope="module")
def census_baseline(census_relation, census_model):
    return derive_probabilistic_database(
        census_relation, config=CENSUS_CONFIG, model=census_model
    )


def _single_missing_indices(relation, k=2):
    """Row indices of the first ``k`` single-missing tuples."""
    out = [
        i for i, t in enumerate(relation)
        if t.num_missing == 1
    ]
    assert len(out) >= k
    return out[:k]


@pytest.fixture(scope="module")
def census_updated(census_relation):
    """The census relation after a ChangeSet touching 2 single-missing rows.

    Only incomplete rows change (and they stay incomplete), so the complete
    part — hence a re-learned model — is untouched too.
    """
    idx = _single_missing_indices(census_relation)
    ops = []
    for i in idx:
        t = census_relation[i]
        attr = next(
            a.name for p, a in enumerate(t.schema)
            if p not in t.missing_positions
        )
        current = t.value(attr)
        other = next(v for v in t.schema[attr].domain if v != current)
        ops.append(update(i, {attr: other}, source="editor"))
    updated = census_relation.copy()
    outcome = updated.apply_changeset(ChangeSet(ops))
    assert len(outcome.updated) == len(idx)
    return updated


# -- core delta derivation ---------------------------------------------------


class TestDeltaDerive:
    def test_delta_is_bit_identical_to_from_scratch(
        self, census_updated, census_model, census_baseline
    ):
        scratch = derive_probabilistic_database(
            census_updated,
            config=CENSUS_CONFIG,
            model=census_model,
            rng=census_baseline.base_seed,
        )
        delta = derive_probabilistic_database(
            census_updated, config=CENSUS_CONFIG, previous=census_baseline
        )
        assert_identical_databases(delta.database, scratch.database)
        assert delta.model is census_baseline.model
        assert delta.base_seed == census_baseline.base_seed

    def test_only_dirty_shards_replan(
        self, census_relation, census_updated, census_baseline
    ):
        delta = derive_probabilistic_database(
            census_updated, config=CENSUS_CONFIG, previous=census_baseline
        )
        report = delta.exec_report
        # Two single-missing tuples were touched; everything else carried.
        workload = census_updated.num_incomplete
        assert report.carried_over > 0
        assert report.carried_tuples == workload - 2
        assert report.num_shards >= 1  # only the dirty shards executed
        full = census_baseline.exec_report
        assert report.num_shards < full.num_shards + full.carried_over
        carried_rows = [t for t in report.timings if t.carried]
        assert len(carried_rows) == report.carried_over
        assert all(t.worker == "carry" and t.elapsed == 0.0 for t in carried_rows)

    def test_full_policy_gives_the_same_database(
        self, census_updated, census_baseline
    ):
        delta = derive_probabilistic_database(
            census_updated, config=CENSUS_CONFIG, previous=census_baseline
        )
        full = derive_probabilistic_database(
            census_updated,
            config=CENSUS_CONFIG.replacing(update_policy="full"),
            previous=census_baseline,
        )
        assert_identical_databases(delta.database, full.database)
        assert full.exec_report.carried_over == 0
        # Both policies run on the lattices the previous run compiled.
        assert census_baseline.engine.compiled is not None
        assert delta.engine.compiled is census_baseline.engine.compiled
        assert full.engine.compiled is census_baseline.engine.compiled

    def test_delta_starts_from_a_copy_of_the_previous_memos(
        self, census_updated, census_baseline
    ):
        """A delta carries the previous run's CPDs as it carries its
        blocks: its engine starts from a copy of the previous engine's
        memos, computes only signatures those lack, and leaves the
        previous engine as it was; the full policy starts cold."""
        previous = census_baseline.engine
        assert previous is not None
        before = previous.cache_info()
        delta = derive_probabilistic_database(
            census_updated, config=CENSUS_CONFIG, previous=census_baseline
        )
        full = derive_probabilistic_database(
            census_updated,
            config=CENSUS_CONFIG.replacing(update_policy="full"),
            previous=census_baseline,
        )
        assert previous.cache_info() == before
        assert delta.engine is not previous
        assert delta.engine.compiled is census_baseline.engine.compiled
        assert delta.engine.cache_info()["size"] >= before["size"]
        assert 0 < delta.engine.groups_computed < full.engine.groups_computed
        assert_identical_databases(delta.database, full.database)

    def test_compiled_lattices_stay_with_their_model(
        self, census_relation, census_baseline
    ):
        other = learn_mrsl(census_relation, support_threshold=0.05).model
        assert BatchInferenceEngine(other).compiled is other.compiled
        assert other.compiled is not census_baseline.engine.compiled
        # A re-derive under another model reads that model's lattices.
        result = derive_probabilistic_database(
            census_relation,
            config=CENSUS_CONFIG.replacing(update_policy="full"),
            model=other,
            previous=census_baseline,
        )
        assert result.engine.compiled.model is other

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_delta_equivalence_across_executors(
        self, census_updated, census_model, census_baseline, executor
    ):
        scratch = derive_probabilistic_database(
            census_updated,
            config=CENSUS_CONFIG,
            model=census_model,
            rng=census_baseline.base_seed,
        )
        delta = derive_probabilistic_database(
            census_updated,
            config=CENSUS_CONFIG.replacing(
                executor=executor, workers=1 if executor == "serial" else 3
            ),
            previous=census_baseline,
        )
        assert_identical_databases(delta.database, scratch.database)

    def test_retract_and_insert_flow_through(self, fig1_relation):
        config = DeriveConfig(
            support_threshold=0.1, num_samples=60, burn_in=10, seed=2
        )
        baseline = derive_probabilistic_database(fig1_relation, config=config)
        updated = fig1_relation.copy()
        updated.apply_changeset(ChangeSet([retract(0)]))
        scratch = derive_probabilistic_database(
            updated, config=config, model=baseline.model,
            rng=baseline.base_seed,
        )
        delta = derive_probabilistic_database(
            updated, config=config, previous=baseline
        )
        assert_identical_databases(delta.database, scratch.database)

    def test_bad_update_policy_rejected(self, fig1_relation):
        config = DeriveConfig(support_threshold=0.1, seed=2)
        baseline = derive_probabilistic_database(fig1_relation, config=config)
        with pytest.raises(ValueError, match="update_policy"):
            derive_probabilistic_database(
                fig1_relation,
                config={**config.to_dict(), "update_policy": "lazy"},
                previous=baseline,
            )


# -- the carry store ---------------------------------------------------------


class TestCarryStore:
    def test_unchanged_workload_carries_everything(
        self, census_relation, census_baseline
    ):
        store = CarryStore.from_layout(
            census_baseline.layout, census_baseline.base_seed
        )
        workload = list(census_relation.incomplete_part())
        workload.sort(key=lambda t: t.num_missing > 1)
        split = store.split(workload)
        assert split.num_carried_tuples == len(workload)
        assert split.num_dirty_tuples == 0
        assert not split.dirty_single and not split.dirty_multi

    def test_touched_single_is_dirty_alone(
        self, census_relation, census_baseline
    ):
        store = CarryStore.from_layout(
            census_baseline.layout, census_baseline.base_seed
        )
        workload = list(census_relation.incomplete_part())
        workload.sort(key=lambda t: t.num_missing > 1)
        target = next(i for i, t in enumerate(workload) if t.num_missing == 1)
        t = workload[target]
        attr = next(
            a.name for p, a in enumerate(t.schema)
            if p not in t.missing_positions
        )
        other = next(v for v in t.schema[attr].domain if v != t.value(attr))
        vals = list(t.values())
        vals[t.schema.index(attr)] = other
        workload[target] = make_tuple(t.schema, vals)
        split = store.split(workload)
        assert split.num_dirty_tuples == 1
        # The split numbers distinct rows: the one dirty row is the target's.
        assert split.dirty_single == [split.workload.rows[target]]
        assert split.workload.tuples[split.dirty_single[0]] is workload[target]

    def test_run_layout_gives_the_replayed_store(
        self, census_updated, census_baseline
    ):
        """A derivation keeps what it planned: the store built from its
        layout holds the very blocks, segment keys and row orders that
        replaying the layout over its database recovers, for a scratch
        result and for a delta result that carried its multi segments."""
        delta = derive_probabilistic_database(
            census_updated, config=CENSUS_CONFIG, previous=census_baseline
        )
        assert delta.exec_report.carried_over > 0
        for result in (census_baseline, delta):
            got = CarryStore.from_layout(result.layout, result.base_seed)
            want = CarryStore.from_database(result.database, result.base_seed)
            assert got.base_seed == want.base_seed
            assert list(got.singles) == list(want.singles)
            assert all(got.singles[t] is b for t, b in want.singles.items())
            assert got.multi.keys() == want.multi.keys() != set()
            assert [key for key, _ in got.run.segments] == [
                key for key, _ in want.run.segments
            ]
            for (_, a), (_, b) in zip(got.run.segments, want.run.segments):
                assert np.array_equal(a, b)
            for key, blocks in want.multi.items():
                assert np.array_equal(got.multi[key].codes, blocks.codes)
                assert len(got.multi[key].blocks) == len(blocks.blocks)
                assert all(
                    a is b for a, b in zip(got.multi[key].blocks, blocks.blocks)
                )

    def test_split_reuses_the_run_layout_while_its_multi_rows_stand(
        self, census_relation, census_baseline, monkeypatch
    ):
        """The multi layout is a function of the multi rows alone: a split
        whose multi rows are the previous run's takes that run's segments
        without laying the rows out again, and a touched multi row lays
        them out afresh.  Either way the split equals one made without the
        run's layout."""
        from repro.exec import plan as plan_module

        store = CarryStore.from_layout(
            census_baseline.layout, census_baseline.base_seed
        )
        replayed = CarryStore(store.singles, store.multi, store.base_seed)
        workload = list(census_relation.incomplete_part())
        workload.sort(key=lambda t: t.num_missing > 1)
        touched = list(workload)
        target = next(i for i, t in enumerate(touched) if t.num_missing > 1)
        codes = touched[target].codes.copy()
        codes[np.flatnonzero(codes == MISSING_CODE)[0]] = 0
        touched[target] = RelTuple(touched[target].schema, codes)
        laid_out = []
        component_roots = plan_module._component_roots
        monkeypatch.setattr(
            plan_module, "_component_roots",
            lambda rows: laid_out.append(1) or component_roots(rows),
        )
        for rows, layouts in ((workload, 0), (touched, 1)):
            split = store.split(rows)
            assert len(laid_out) == layouts
            want = replayed.split(rows)
            assert [(g, r.tolist()) for g, r in split.layout] == [
                (g, r.tolist()) for g, r in want.layout
            ]
            assert bool(split.dirty_multi) == bool(layouts)
            laid_out.clear()

    def test_complete_tuples_rejected(self, census_relation, census_baseline):
        store = CarryStore.from_layout(
            census_baseline.layout, census_baseline.base_seed
        )
        with pytest.raises(ValueError, match="complete tuples"):
            store.split(list(census_relation.complete_part())[:1])


# -- lazy deriver cache ------------------------------------------------------


class TestLazyCache:
    CONFIG = dict(
        config=DeriveConfig(support_threshold=0.1, num_samples=40, burn_in=5),
        rng=4,
    )

    def test_cache_info_counts_hits_misses(self, fig1_relation):
        deriver = LazyDeriver(fig1_relation, **self.CONFIG)
        info = deriver.cache_info()
        assert info == (0, 0, 0, 0)
        t = next(iter(fig1_relation.incomplete_part()))
        deriver.block(t)
        assert deriver.cache_info().misses == 1
        deriver.block(t)
        info = deriver.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_prefetch_counts_cached_as_hits(self, fig1_relation):
        deriver = LazyDeriver(fig1_relation, **self.CONFIG)
        incomplete = list(fig1_relation.incomplete_part())
        deriver.prefetch(incomplete)
        first = deriver.cache_info()
        assert first.misses == len(set(incomplete))
        deriver.prefetch(incomplete)
        again = deriver.cache_info()
        assert again.hits == first.hits + len(incomplete)
        assert again.misses == first.misses

    def test_evict_is_targeted(self, fig1_relation):
        deriver = LazyDeriver(fig1_relation, **self.CONFIG)
        incomplete = list(fig1_relation.incomplete_part())
        deriver.prefetch(incomplete)
        size = deriver.cache_info().size
        removed = deriver.evict(incomplete[:2])
        assert removed == 2
        info = deriver.cache_info()
        assert info.evictions == 2 and info.size == size - 2
        # Evicting an absent tuple is a no-op, not an error.
        assert deriver.evict(incomplete[:2]) == 0

    def test_apply_changeset_evicts_touched_blocks(self, fig1_relation):
        deriver = LazyDeriver(fig1_relation.copy(), **self.CONFIG)
        incomplete = list(fig1_relation.incomplete_part())
        deriver.prefetch(incomplete)
        size = deriver.cache_info().size
        # Touch one incomplete row's known cell; its block must go.
        target = next(
            i for i, t in enumerate(fig1_relation) if t.num_missing == 1
        )
        t = fig1_relation[target]
        attr = next(
            a.name for p, a in enumerate(t.schema)
            if p not in t.missing_positions
        )
        other = next(v for v in t.schema[attr].domain if v != t.value(attr))
        removed = deriver.apply_changeset(
            ChangeSet([update(target, {attr: other})])
        )
        assert removed >= 1
        assert deriver.cache_info().size == size - removed
        assert len(deriver.relation.update_log) == 1
        # The next access re-derives against the updated table.
        new_t = deriver.relation[target]
        block = deriver.block(new_t)
        assert block.base == new_t


# -- session and service -----------------------------------------------------


CONFIG = {"support_threshold": 0.1, "num_samples": 200, "burn_in": 20, "seed": 0}
CHANGES = {
    "ops": [{"op": "update", "index": 15, "set": {"age": "30"}, "source": "hr"}]
}


class TestSessionUpdates:
    def test_apply_updates_matches_full_rederive(self):
        session = Session(DeriveConfig(**CONFIG))
        relation = Relation.from_rows(_fig1_schema(), FIG1_ROWS)
        baseline = session.derive(relation)
        updated = session.apply_updates(CHANGES)
        assert updated.policy == "delta"
        assert updated.outcome.updated == (15,)
        # The session's stored relation took the write...
        assert session.relation()[15].value("age") == "30"
        # ...and the caller's relation did not (no aliasing).
        assert relation[15].value("age") == "40"
        # Delta result equals a from-scratch derive of the updated table.
        scratch = derive_probabilistic_database(
            session.relation(),
            config=session.config,
            model=baseline.model,
            rng=baseline.base_seed,
        )
        assert_identical_databases(session.database(), scratch.database)
        assert updated.carried_over > 0

    def test_cancelled_update_commits_nothing(self):
        session = Session(DeriveConfig(**CONFIG))
        relation = Relation.from_rows(_fig1_schema(), FIG1_ROWS)
        session.derive(relation)
        before_db = session.database()
        from repro.exec.base import DerivationCancelled

        with pytest.raises(DerivationCancelled):
            session.apply_updates(CHANGES, cancel=lambda: True)
        assert session.database() is before_db
        assert session.relation()[15].value("age") == "40"
        assert session.relation().update_log == ()

    def test_unknown_database_raises(self):
        session = Session(DeriveConfig(**CONFIG))
        with pytest.raises(LookupError, match="no derived database"):
            session.apply_updates(CHANGES, name="nope")


def _fig1_schema():
    from repro.relational import Attribute, Schema

    return Schema(
        [Attribute(name, domain) for name, domain in FIG1_SCHEMA.items()]
    )


class TestServiceUpdate:
    def _service(self):
        service = InferenceService()
        service.handle_json(
            "derive",
            {"schema": FIG1_SCHEMA, "rows": FIG1_ROWS, "config": CONFIG},
        )
        return service

    def test_request_round_trip(self):
        request = UpdateRequest.from_dict(
            {"changes": CHANGES, "config": {"trust": ["hr"]}}
        )
        assert UpdateRequest.from_dict(request.to_dict()) == request

    def test_update_endpoint(self):
        service = self._service()
        response = UpdateResponse.from_dict(
            service.handle_json("update", {"changes": CHANGES})
        )
        assert response.policy == "delta"
        assert response.applied["updated"] == [15]
        assert response.carried_over > 0
        assert response.executed_shards >= 1
        assert response.num_blocks == 9
        # The updated database serves queries in place.
        assert service.session.relation()[15].value("age") == "30"

    def test_update_unknown_database_is_404(self):
        service = InferenceService()
        with pytest.raises(ServiceError) as err:
            service.handle_json("update", {"changes": CHANGES})
        assert err.value.status == 404

    def test_bad_changeset_is_400(self):
        service = self._service()
        with pytest.raises(ServiceError, match="bad ChangeSet"):
            service.handle_json(
                "update", {"changes": {"ops": [{"op": "merge"}]}}
            )

    def test_update_async_round_trips(self):
        service = self._service()
        sync = service.handle_json("update", {"changes": CHANGES})
        # Reset and replay the same update asynchronously.
        service = self._service()
        try:
            ack = service.handle_json("update_async", {"changes": CHANGES})
            job = service.jobs.get(ack["job_id"])
            assert job.wait(timeout=30)
            status = service.job_status(ack["job_id"])
            assert status["state"] == "done"
            assert status["label"] == "update"
            result = service.job_result(ack["job_id"])
            assert result == sync
        finally:
            # Stop the job thread: a live thread would keep every later
            # process derive of this test run off the fork start method.
            service.jobs.close()

    def test_update_async_fails_fast(self):
        service = InferenceService()
        with pytest.raises(ServiceError) as err:
            service.handle_json("update_async", {"changes": CHANGES})
        assert err.value.status == 404
        service = self._service()
        with pytest.raises(ServiceError, match="bad ChangeSet"):
            service.handle_json(
                "update_async", {"changes": {"ops": [{"op": "merge"}]}}
            )


# -- CLI ---------------------------------------------------------------------


class TestCliUpdate:
    def test_update_byte_identical_to_from_scratch(self, tmp_path, capsys):
        from repro.cli import main
        from repro.relational.io import write_csv

        data = tmp_path / "data.csv"
        write_csv(Relation.from_rows(_fig1_schema(), FIG1_ROWS), data)
        changes = tmp_path / "changes.json"
        changes.write_text(ChangeSet.from_dict(CHANGES).to_json())
        blocks = tmp_path / "blocks.csv"
        updated_csv = tmp_path / "updated.csv"
        args = ["--support", "0.1", "--samples", "60", "--seed", "9"]
        assert main(
            [
                "update", str(data), str(changes),
                "--output", str(blocks),
                "--save-updated", str(updated_csv),
                *args,
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "re-derived (delta)" in err
        assert "carried over" in err
        scratch = tmp_path / "scratch.csv"
        assert main(
            ["derive", str(updated_csv), "--output", str(scratch), *args]
        ) == 0
        assert blocks.read_bytes() == scratch.read_bytes()
