"""Tests for the sharded derivation runtime (repro.exec).

The load-bearing guarantee: serial and process executors produce
bit-identical probabilistic databases for any worker count, on both the
paper's Fig. 1 relation and a census sample.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.api.session import Session
from repro.bench.masking import mask_relation
from repro.core import derive_probabilistic_database, single_missing_blocks
from repro.core.lazy import LazyDeriver
from repro.core.learning import learn_mrsl
from repro.core.persistence import (
    compiled_metadata,
    load_model,
    save_model,
    verify_compiled_metadata,
)
from repro.datasets.census import load_census
from repro.exec import plan as plan_module
from repro.exec import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    Workload,
    get_executor,
    multi_shard_layout,
    plan_shards,
    shard_seed,
    stream_derivation,
)
from repro.relational import Relation, Schema, make_tuple
from repro.relational.tuples import MISSING_CODE, RelTuple, proper_subsumes


def assert_identical_databases(a, b):
    """Bit-for-bit equality of two derived probabilistic databases."""
    assert len(a.blocks) == len(b.blocks)
    for ba, bb in zip(a.blocks, b.blocks):
        assert ba.base == bb.base
        assert ba.distribution.outcomes == bb.distribution.outcomes
        assert (ba.distribution.probs == bb.distribution.probs).all()


@pytest.fixture(scope="module")
def census_relation():
    """A census sample mixing complete, single- and multi-missing tuples."""
    rng = np.random.default_rng(7)
    train, _ = load_census(250, rng)
    test, _ = load_census(30, rng)
    masked = mask_relation(test, (1, 1, 1, 2), rng)
    return Relation(train.schema, list(train) + list(masked))


@pytest.fixture(scope="module")
def census_model(census_relation):
    return learn_mrsl(census_relation, support_threshold=0.02).model


CENSUS_CONFIG = dict(
    support_threshold=0.02, num_samples=40, burn_in=5, seed=5
)


@pytest.fixture(scope="module")
def census_baseline(census_relation, census_model):
    return derive_probabilistic_database(
        census_relation,
        config=DeriveConfig(**CENSUS_CONFIG),
        model=census_model,
    )


# -- the planner -------------------------------------------------------------


class TestPlanner:
    def test_single_shards_group_by_signature(self, census_relation, census_model):
        singles = [
            t for t in census_relation.incomplete_part() if t.num_missing == 1
        ]
        plan = plan_shards(singles, census_model, workers=2)
        assert not plan.multi_shards
        assert sum(len(s) for s in plan.single_shards) == len(singles)
        # Packing is bounded by workers * factor, and every shard carries
        # at least one signature group.
        assert len(plan.single_shards) <= 4
        assert all(s.groups >= 1 for s in plan.single_shards)

    def test_multi_shards_follow_subsumption_components(
        self, fig1_schema, fig1_relation, monkeypatch
    ):
        # t5 <20,?,?,?> subsumes t1 <20,HS,?,?>: one component.  t12
        # <30,MS,?,?> is unrelated: its own component.  With two distinct
        # tuples per segment the component order cuts {t1, t5} | {t12},
        # and two workers run one segment each.
        monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", 2)
        t1 = make_tuple(fig1_schema, {"age": "20", "edu": "HS"})
        t5 = make_tuple(fig1_schema, {"age": "20"})
        t12 = make_tuple(fig1_schema, {"age": "30", "edu": "MS"})
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        plan = plan_shards([t1, t12, t5], model, workers=2, seed=3)
        multis = plan.multi_shards
        assert len(multis) == 2
        by_size = sorted(multis, key=len)
        assert set(by_size[0].tuples) == {t12}
        assert set(by_size[1].tuples) == {t1, t5}

    def test_multi_seeds_independent_of_worker_count(self, fig1_relation):
        multi = [
            t for t in fig1_relation.incomplete_part() if t.num_missing > 1
        ]
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        plans = [
            plan_shards(multi, model, workers=w, seed=5) for w in (1, 2, 4)
        ]
        # The seed unit is the segment; this small workload is one.
        keys = [
            sorted(
                (g.key, g.seed) for s in p.multi_shards for g in s.segments
            )
            for p in plans
        ]
        assert keys[0] == keys[1] == keys[2]
        assert all(len(s.segments) == 1 for p in plans for s in p.multi_shards)

    def test_seed_changes_shard_seeds(self, fig1_relation):
        multi = [
            t for t in fig1_relation.incomplete_part() if t.num_missing > 1
        ]
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        a = plan_shards(multi, model, seed=1)
        b = plan_shards(multi, model, seed=2)
        def seeds(plan):
            return [g.seed for s in plan.multi_shards for g in s.segments]

        assert seeds(a) != seeds(b)

    def test_shard_seed_is_stable(self):
        assert shard_seed(11, "multi:abc") == shard_seed(11, "multi:abc")
        assert shard_seed(11, "multi:abc") != shard_seed(12, "multi:abc")

    def test_complete_tuples_rejected(self, fig1_relation):
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        complete = next(iter(fig1_relation.complete_part()))
        with pytest.raises(ValueError, match="complete tuples"):
            plan_shards([complete], model)

    def test_rng_free_workloads_consume_no_entropy(self, fig1_relation):
        singles = [
            t for t in fig1_relation.incomplete_part() if t.num_missing == 1
        ]
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        gen = np.random.default_rng(0)
        state_before = gen.bit_generator.state
        plan = plan_shards(singles, model, rng=gen)
        assert plan.base_seed is None
        assert gen.bit_generator.state == state_before


# -- the multi layout against the RelTuple-keyed reference --------------------


def _reference_layout(entries, multi_batch):
    """The RelTuple-keyed layout the code-matrix planner replaced: dict
    dedupe, pairwise ``proper_subsumes`` union-find, greedy re-batching."""
    node, members = {}, []
    for idx, t in entries:
        if t not in node:
            node[t] = len(members)
            members.append([])
        members[node[t]].append((idx, t))
    tuples = list(node)
    parent = list(range(len(tuples)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, ta in enumerate(tuples):
        for b, tb in enumerate(tuples):
            if proper_subsumes(ta, tb):
                ra, rb = find(a), find(b)
                parent[max(ra, rb)] = min(ra, rb)
    by_root = {}
    for i in range(len(tuples)):
        by_root.setdefault(find(i), []).extend(members[i])
    components = [
        sorted(c, key=lambda e: e[0]) for _, c in sorted(by_root.items())
    ]
    batches, current, count = [], [], 0
    for component in components:
        by_tuple = {}
        for entry in component:
            by_tuple.setdefault(entry[1], []).append(entry)
        for group in by_tuple.values():
            if count == multi_batch:
                batches.append(current)
                current, count = [], 0
            current.extend(group)
            count += 1
    batches.append(current)
    batches = [sorted(b, key=lambda e: e[0]) for b in batches]
    layout = []
    for batch in batches:
        h = hashlib.sha256()
        for codes in sorted({t.codes.tobytes() for _, t in batch}):
            h.update(codes)
        layout.append((f"multi:{h.hexdigest()[:16]}", batch))
    return layout


def _random_multis(seed, n=120):
    """Random multi-missing tuples over a small schema, duplicates included."""
    rng = np.random.default_rng(seed)
    schema = Schema.from_domains(
        {"a": ["0", "1", "2"], "b": ["0", "1"], "c": ["0", "1", "2"], "d": ["0", "1"]}
    )
    cards = np.array([3, 2, 3, 2])
    out = []
    while len(out) < n:
        codes = (rng.random(4) * cards).astype(np.int32)
        codes[rng.random(4) < 0.55] = MISSING_CODE
        if (codes == MISSING_CODE).sum() >= 2:
            out.append(RelTuple(schema, codes))
    return out


class TestLayoutMatchesReference:
    """Planning on the code matrix keeps every segment key and member list."""

    @pytest.fixture
    def workloads(self, fig1_relation, census_relation):
        rng = np.random.default_rng(3)
        test, _ = load_census(400, rng)
        census_multi = [t for t in census_relation if t.num_missing > 1]
        return {
            "fig1": [t for t in fig1_relation if t.num_missing > 1],
            "census": census_multi + list(mask_relation(test, (2, 3), rng)),
            **{f"random{seed}": _random_multis(seed) for seed in range(4)},
        }

    @pytest.mark.parametrize("multi_batch", [1, 2, 7, 128])
    def test_keys_and_members_identical(
        self, workloads, multi_batch, monkeypatch
    ):
        monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", multi_batch)
        for name, tuples in workloads.items():
            entries = list(enumerate(tuples))
            # The layout runs on the distinct rows; expand each segment's
            # members back to the workload entries they stand for.
            workload = Workload.from_tuples(tuples)
            layout = multi_shard_layout(workload.codes, workload.counts)
            expected = _reference_layout(entries, multi_batch)
            got = []
            for g, members in layout:
                assert (np.diff(members) > 0).all()
                positions = np.flatnonzero(np.isin(workload.rows, members))
                batch = [entries[p] for p in positions.tolist()]
                got.append((g.key, batch))
                assert g.size == len(batch)
                assert g.distinct == members.size == len({t for _, t in batch})
            assert got == expected, name


# -- executor determinism -----------------------------------------------------


FIG1_CONFIG = dict(support_threshold=0.1, num_samples=50, burn_in=10, seed=11)


class TestDeterminism:
    @pytest.fixture
    def fig1_baseline(self, fig1_relation):
        return derive_probabilistic_database(
            fig1_relation, config=DeriveConfig(**FIG1_CONFIG)
        )

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fig1_bit_identical(
        self, fig1_relation, fig1_baseline, executor, workers
    ):
        cfg = DeriveConfig(**FIG1_CONFIG, executor=executor, workers=workers)
        result = derive_probabilistic_database(fig1_relation, config=cfg)
        assert_identical_databases(fig1_baseline.database, result.database)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_census_bit_identical(
        self, census_relation, census_model, census_baseline, executor,
        workers,
    ):
        cfg = DeriveConfig(
            **CENSUS_CONFIG, executor=executor, workers=workers
        )
        result = derive_probabilistic_database(
            census_relation, config=cfg, model=census_model
        )
        assert_identical_databases(census_baseline.database, result.database)

    def test_naive_engine_identical_across_executors(self, fig1_relation):
        cfg = DeriveConfig(**FIG1_CONFIG, engine="naive")
        baseline = derive_probabilistic_database(fig1_relation, config=cfg)
        pooled = derive_probabilistic_database(
            fig1_relation,
            config=cfg.replacing(executor="process", workers=2),
        )
        assert_identical_databases(baseline.database, pooled.database)

    def test_reproducible_via_generator(self, fig1_relation):
        """A seeded generator still reproduces across separate runs."""
        runs = [
            derive_probabilistic_database(
                fig1_relation,
                config=DeriveConfig(
                    support_threshold=0.1, num_samples=50, burn_in=10
                ),
                rng=np.random.default_rng(9),
            )
            for _ in range(2)
        ]
        assert_identical_databases(runs[0].database, runs[1].database)


# -- the streaming collector ---------------------------------------------------


class TestStreaming:
    def test_stream_yields_every_shard_once(self, fig1_relation):
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        tuples = list(fig1_relation.incomplete_part())
        cfg = DeriveConfig(**FIG1_CONFIG)
        plan = plan_shards(tuples, model, seed=cfg.seed)
        results = list(
            stream_derivation(tuples, model, cfg, plan=plan)
        )
        assert sorted(r.key for r in results) == sorted(
            s.key for s in plan.shards
        )
        covered = sorted(i for r in results for i in r.indices)
        assert covered == list(range(len(tuples)))
        for r in results:
            assert len(r.blocks) == len(r.indices)
            assert r.elapsed >= 0.0
            assert r.worker

    def test_exec_report_diagnostics(self, fig1_relation):
        cfg = DeriveConfig(**FIG1_CONFIG)
        result = derive_probabilistic_database(fig1_relation, config=cfg)
        report = result.exec_report
        assert report is not None
        assert report.executor == "serial"
        assert report.num_tuples == fig1_relation.num_incomplete
        assert len(report.timings) == report.num_shards
        assert report.slowest(2)
        assert "shards" in report.summary()


# -- executor plumbing ----------------------------------------------------------


class TestExecutorSelection:
    def test_get_executor_by_name(self):
        assert isinstance(get_executor("process", 3), ProcessExecutor)
        assert get_executor("process", 3).workers == 3

    def test_get_executor_passthrough(self):
        ex = SerialExecutor(2)
        assert get_executor(ex) is ex

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            get_executor("gpu")
        with pytest.raises(ValueError, match="executor"):
            DeriveConfig(executor="gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            DeriveConfig(workers=0)

    def test_executor_instance_conflicts_with_workers(self, fig1_relation):
        """``single_missing_blocks`` takes no executor, worker or voting
        keywords, so no instance can conflict with a worker count: knobs
        travel in ``config``."""
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        singles = [
            t for t in fig1_relation.incomplete_part() if t.num_missing == 1
        ]
        for knobs in (
            {"executor": SerialExecutor(2), "workers": 4},
            {"executor": "process"},
            {"workers": 2},
            {"v_choice": "all"},
        ):
            with pytest.raises(TypeError):
                single_missing_blocks(singles, model, **knobs)

    def test_single_missing_blocks_rejects_multi(self, fig1_schema, fig1_relation):
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        t = make_tuple(fig1_schema, {"age": "20"})
        with pytest.raises(ValueError, match="exactly one missing"):
            single_missing_blocks([t], model)

    def test_single_missing_blocks_executor_override(
        self, fig1_schema, fig1_relation
    ):
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        singles = [
            t for t in fig1_relation.incomplete_part() if t.num_missing == 1
        ]
        serial = single_missing_blocks(singles, model)
        pooled = single_missing_blocks(
            singles, model, config=DeriveConfig(executor="process", workers=2)
        )
        assert len(pooled) == len(serial)
        for a, b in zip(serial, pooled):
            assert a.base == b.base
            assert (a.distribution.probs == b.distribution.probs).all()


# -- the lazy path ---------------------------------------------------------------


class TestLazyPrefetch:
    def test_prefetch_skips_cached_tuples(self, fig1_relation):
        deriver = LazyDeriver(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=50, burn_in=10),
            rng=0,
        )
        incomplete = list(fig1_relation.incomplete_part())
        deriver.prefetch(incomplete[:3])
        first = deriver.materialized
        cached = {t: deriver.block(t) for t in incomplete[:3]}
        # Prefetching a superset must not re-derive (or replace) the
        # already-cached blocks.
        deriver.prefetch(incomplete)
        assert deriver.materialized == len(set(incomplete))
        for t, block in cached.items():
            assert deriver.block(t) is block
        assert deriver.materialized >= first

    def test_prefetch_dedupes_input(self, fig1_schema, fig1_relation):
        deriver = LazyDeriver(
            fig1_relation,
            config=DeriveConfig(support_threshold=0.1, num_samples=50, burn_in=10),
            rng=0,
        )
        t = make_tuple(fig1_schema, {"age": "30", "edu": "MS"})
        deriver.prefetch([t, t, t])
        assert deriver.materialized == 1

    def test_lazy_executor_knob(self, fig1_relation):
        config = DeriveConfig(support_threshold=0.1, num_samples=50, burn_in=10)
        serial = LazyDeriver(fig1_relation, config=config, rng=4)
        pooled = LazyDeriver(
            fig1_relation,
            config=config.replacing(executor="process", workers=2),
            rng=4,
        )
        assert_identical_databases(
            serial.materialize_all(), pooled.materialize_all()
        )


# -- session / service plumbing ---------------------------------------------------


class TestSessionExecutors:
    def test_session_derive_executor_override(self, fig1_relation):
        session = Session(
            {"support_threshold": 0.1, "num_samples": 50,
             "burn_in": 10, "seed": 2}
        )
        baseline = session.derive(fig1_relation, name="serial")
        sharded = session.derive(
            fig1_relation,
            name="sharded",
            config={"executor": "process", "workers": 2},
        )
        assert_identical_databases(baseline.database, sharded.database)

    def test_derive_request_executor_fields_roundtrip(self):
        from repro.api.service import DeriveRequest

        request = DeriveRequest.from_dict(
            {"rows": [["20", "HS", "?", "?"]],
             "config": {"executor": "process", "workers": 2}}
        )
        assert request.config == {"executor": "process", "workers": 2}
        assert DeriveRequest.from_dict(request.to_dict()) == request


# -- process rebuild validation ----------------------------------------------------


class TestCompiledMetadata:
    def test_roundtrip_validates(self, fig1_relation, tmp_path):
        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        path = tmp_path / "model.json"
        save_model(model, path)
        reloaded = load_model(path)  # load_model verifies when present
        verify_compiled_metadata(reloaded, compiled_metadata(model))

    def test_tampered_model_rejected(self, fig1_relation, tmp_path):
        import json

        model = learn_mrsl(fig1_relation, support_threshold=0.1).model
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["lattices"][0]["meta_rules"][0]["weight"] *= 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="compiled model mismatch"):
            load_model(path)

    def test_each_lattice_hashes_once(self, census_model, monkeypatch):
        """A lattice keeps its digest: checking the same compiled lattices
        again (a forked worker's inherited ones) hashes nothing, while
        freshly compiled ones (a rebuilt model's) hash their own."""
        from repro.core import compiled as compiled_module
        from repro.core.persistence import model_from_dict, model_to_dict

        meta = compiled_metadata(census_model)
        rebuilt = model_from_dict(model_to_dict(census_model))

        def refused(*args):
            raise AssertionError("hashed a lattice again")

        monkeypatch.setattr(
            compiled_module, "hashlib", SimpleNamespace(sha256=refused)
        )
        verify_compiled_metadata(census_model, meta)
        with pytest.raises(AssertionError, match="hashed a lattice again"):
            verify_compiled_metadata(rebuilt, meta)

    def test_metadata_shape(self, census_model):
        meta = compiled_metadata(census_model)
        assert meta["version"] == 1
        assert len(meta["attributes"]) == len(census_model.schema)
        for entry in meta["attributes"]:
            assert set(entry) == {
                "attribute", "rules", "max_body", "cpd_shape",
                "signature_attrs", "digest",
            }
