"""One shard planner: a scratch derive is a delta derive that carries nothing.

:func:`~repro.exec.plan.plan_shards` plans scratch and delta derives alike;
a :class:`~repro.probdb.invalidate.CarryStore` only takes the rows it
carries out of the plan.  The guarantees checked here:

* Against a store that matches nothing, the planner gives the plan it
  gives without one, field for field, on census and BN7 workloads with
  repeated rows and for 1, 2 and 4 workers.
* ``execute_delta`` over such a store equals ``execute_derivation`` byte
  for byte: blocks, plan, report rows and run layout.
* A delta re-derive plans once, through the runtime's ``plan_shards``.
* The serial executor plans and reports one worker, whatever ``workers``
  says, so its plan and database equal a ``workers=1`` run.
"""

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.bayesnet import forward_sample_relation, make_network
from repro.bench.masking import mask_relation
from repro.core import derive_probabilistic_database
from repro.core.learning import learn_mrsl
from repro.datasets.census import load_census
from repro.exec import execute_delta, execute_derivation
from repro.exec import plan as plan_module
from repro.exec import runtime
from repro.exec.plan import Workload, plan_shards
from repro.probdb import CarryStore
from repro.relational import ChangeSet, Relation, update

CONFIG = dict(support_threshold=0.02, num_samples=30, burn_in=4, seed=5)


def _with_copies(rows, rng):
    """``rows`` plus a copy of every third row, shuffled."""
    rows = rows + rows[::3]
    return [rows[i] for i in rng.permutation(len(rows)).tolist()]


@pytest.fixture(scope="module")
def datasets():
    """Per dataset: a model, its complete rows and incomplete rows missing
    one to three attributes, some of them repeated."""
    out = {}
    rng = np.random.default_rng(34)
    train, _ = load_census(400, rng)
    test, _ = load_census(60, rng)
    out["census"] = (
        learn_mrsl(train, support_threshold=0.02).model,
        list(train)[:20],
        _with_copies(list(mask_relation(test, (1, 1, 2, 3), rng)), rng),
    )
    net = make_network("BN7", rng)
    train = forward_sample_relation(net, 600, rng)
    test = forward_sample_relation(net, 60, rng)
    out["bn7"] = (
        learn_mrsl(train, support_threshold=0.02).model,
        list(train)[:20],
        _with_copies(list(mask_relation(test, (1, 1, 2), rng)), rng),
    )
    return out


@pytest.fixture
def small_segments(monkeypatch):
    """Several multi segments per workload, so fusing follows ``workers``."""
    monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", 6)


def _matches_nothing(base_seed=None):
    return CarryStore(singles={}, multi={}, base_seed=base_seed)


def _workload(rows):
    """The derive order: single-missing rows first, then multi-missing."""
    ordered = sorted(rows, key=lambda t: t.num_missing > 1)
    return Workload.from_tuples(ordered)


def _plan_fields(plan):
    return (
        plan.num_tuples,
        plan.base_seed,
        [
            (
                shard.key,
                shard.kind,
                shard.indices,
                shard.rows,
                shard.groups,
                [(s.key, s.seed, s.size, s.distinct) for s in shard.segments],
                shard.codes.tobytes(),
            )
            for shard in plan.shards
        ],
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", ["census", "bn7"])
def test_a_store_that_matches_nothing_plans_like_no_store(
    datasets, small_segments, name, workers
):
    model, _, rows = datasets[name]
    workload = _workload(rows)
    assert len(workload.tuples) < len(workload)  # the rows repeat
    assert (workload.missing > 1).any() and (workload.missing == 1).any()
    scratch = plan_shards(workload, model, workers=workers, seed=9)
    delta = plan_shards(
        workload, model, workers=workers, seed=9, carry=_matches_nothing()
    )
    assert _plan_fields(delta) == _plan_fields(scratch)
    assert delta == scratch
    assert delta.carried == () and not delta.carried_blocks
    assert delta.carried_over == delta.carried_tuples == 0
    assert scratch.num_tuples == len(workload)
    # A store's base seed pins the plan's, as a seed would.
    pinned = plan_shards(
        workload, model, workers=workers, carry=_matches_nothing(base_seed=9)
    )
    assert _plan_fields(pinned) == _plan_fields(scratch)


def _block_bytes(blocks):
    return [
        (
            block.base.codes.tobytes(),
            tuple(block.distribution.outcomes),
            block.distribution.probs.tobytes(),
        )
        for block in blocks
    ]


def _report_rows(report):
    """The report without wall-clock figures; timing rows by key, since a
    pool's shards land in any order."""
    data = report.to_dict()
    data.pop("elapsed")
    for timing in data["timings"]:
        timing.pop("elapsed")
        timing.pop("worker")
    data["timings"].sort(key=lambda timing: timing["key"])
    return data


@pytest.mark.parametrize(
    "executor, workers", [("serial", 1), ("process", 2)]
)
@pytest.mark.parametrize("name", ["census", "bn7"])
def test_execute_delta_over_nothing_equals_a_scratch_run(
    datasets, small_segments, name, executor, workers
):
    model, _, rows = datasets[name]
    workload = _workload(rows)
    config = DeriveConfig(**CONFIG, executor=executor, workers=workers)
    scratch = execute_derivation(workload, model, config)
    delta = execute_delta(workload, model, config, _matches_nothing())
    assert _block_bytes(delta.blocks) == _block_bytes(scratch.blocks)
    assert _plan_fields(delta.plan) == _plan_fields(scratch.plan)
    assert _report_rows(delta.report) == _report_rows(scratch.report)
    assert delta.report.carried_over == 0
    layouts = delta.layout, scratch.layout
    assert np.array_equal(layouts[0].missing, layouts[1].missing)
    assert _block_bytes(layouts[0].blocks) == _block_bytes(layouts[1].blocks)
    assert layouts[0].multi.keys() == layouts[1].multi.keys()
    for key, segment in layouts[1].multi.items():
        assert layouts[0].multi[key].codes.tobytes() == segment.codes.tobytes()


def test_a_delta_rederive_plans_once(datasets, small_segments, monkeypatch):
    model, complete, rows = datasets["census"]
    relation = Relation(model.schema, complete + rows)
    config = DeriveConfig(**CONFIG)
    baseline = derive_probabilistic_database(relation, config=config, model=model)
    # Touch one single-missing row: every multi segment carries.
    row = next(i for i, t in enumerate(relation) if t.num_missing == 1)
    t = relation[row]
    attr = next(p for p in range(len(t.schema)) if p not in t.missing_positions)
    other = next(
        v for v in t.schema[attr].domain if v != t.value(t.schema[attr].name)
    )
    changes = ChangeSet([update(row, {t.schema[attr].name: other})])
    updated = relation.copy()
    updated.apply_changeset(changes)

    calls = []
    planner = runtime.plan_shards

    def counting(*args, **kwargs):
        calls.append(kwargs.get("carry"))
        return planner(*args, **kwargs)

    monkeypatch.setattr(runtime, "plan_shards", counting)
    delta = derive_probabilistic_database(
        updated, config=config, previous=baseline
    )
    assert len(calls) == 1 and calls[0] is not None
    assert delta.exec_report.carried_over > 0
    monkeypatch.setattr(runtime, "plan_shards", planner)
    scratch = derive_probabilistic_database(
        updated, config=config, model=model, rng=baseline.base_seed
    )
    assert _block_bytes(delta.database.blocks) == _block_bytes(
        scratch.database.blocks
    )


@pytest.mark.parametrize("name", ["census", "bn7"])
def test_serial_runs_one_worker_whatever_workers_says(datasets, name):
    model, complete, rows = datasets[name]
    relation = Relation(model.schema, complete + rows)
    results = [
        derive_probabilistic_database(
            relation,
            config=DeriveConfig(**CONFIG, executor="serial", workers=workers),
            model=model,
        )
        for workers in (1, 4)
    ]
    one, four = (r.exec_report for r in results)
    assert one.workers == four.workers == 1
    assert "serial(workers=1)" in four.summary()
    assert [(t.key, t.tuples, t.groups) for t in four.timings] == [
        (t.key, t.tuples, t.groups) for t in one.timings
    ]
    assert _block_bytes(results[1].database.blocks) == _block_bytes(
        results[0].database.blocks
    )
    workload = _workload(rows)
    plans = [
        execute_derivation(
            workload, model, DeriveConfig(**CONFIG, workers=workers)
        ).plan
        for workers in (1, 4)
    ]
    assert _plan_fields(plans[1]) == _plan_fields(plans[0])
