"""Distinct-row derivation: every distinct incomplete row runs once.

A block depends only on its row's content, so the derivation plans, runs
and binds each distinct row once and hands every copy of a row the same
block object.  The guarantees checked here:

* Copies share their first copy's block, whichever executor, worker count
  and multi segment size ran the workload; the blocks equal a derivation
  of the relation with the copies removed; single blocks equal the naive
  engine's.
* Counts stay per workload row: the report, its shard timings and job
  progress count every copy.
* The first-occurrence numbering and the packing of equal-sized groups
  in runs equal their one-row-at-a-time references.
* Delta re-derives and resumed journals agree with from-scratch runs when
  rows have copies — also for journals written with one block per copy.
* The output bytes of a duplicated census fixture equal the ones derived
  before rows were deduplicated (a pinned digest).
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.config import DeriveConfig
from repro.bayesnet import forward_sample_relation, make_network
from repro.bench.masking import mask_relation
from repro.core import derive_probabilistic_database, single_missing_blocks
from repro.core.learning import learn_mrsl
from repro.datasets.census import load_census
from repro.exec import ShardExecutionError
from repro.exec import plan as plan_module
from repro.exec.faults import FAULT_PLAN_ENV, FaultPlan, ShardFault
from repro.jobs.progress import ProgressTracker
from repro.probdb import CarryStore
from repro.probdb.blocks import TupleBlock
from repro.relational import ChangeSet, Relation, update

CONFIG = dict(support_threshold=0.02, num_samples=30, burn_in=4, seed=23)


def _digest(database) -> str:
    """sha256 over the certain rows and every block's base codes, outcomes
    and probability bytes, in order."""
    h = hashlib.sha256()
    for t in database.certain:
        h.update(t.codes.tobytes())
    for block in database.blocks:
        h.update(block.base.codes.tobytes())
        h.update(repr(tuple(block.distribution.outcomes)).encode())
        h.update(block.distribution.probs.tobytes())
    return h.hexdigest()


def _assert_same_bytes(a, b):
    assert [t.codes.tobytes() for t in a.certain] == [
        t.codes.tobytes() for t in b.certain
    ]
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert x.base.codes.tobytes() == y.base.codes.tobytes()
        assert x.distribution.outcomes == y.distribution.outcomes
        assert x.distribution.probs.tobytes() == y.distribution.probs.tobytes()


@pytest.fixture(scope="module")
def pools():
    """Per dataset: a model, its training rows and a pool of incomplete
    rows missing one to three attributes."""
    out = {}
    rng = np.random.default_rng(41)
    train, _ = load_census(400, rng)
    test, _ = load_census(40, rng)
    out["census"] = (
        learn_mrsl(train, support_threshold=0.02).model,
        list(train)[:30],
        list(mask_relation(test, (1, 1, 2, 3), rng)),
    )
    net = make_network("BN9", rng)
    train = forward_sample_relation(net, 400, rng)
    test = forward_sample_relation(net, 40, rng)
    out["bn"] = (
        learn_mrsl(train, support_threshold=0.02).model,
        list(train)[:30],
        list(mask_relation(test, (1, 1, 2), rng)),
    )
    return out


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_copies_share_their_first_copys_block(pools, data):
    name = data.draw(st.sampled_from(sorted(pools)), label="dataset")
    model, complete, pool = pools[name]
    picks = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20),
        label="rows",
    )
    repeats = data.draw(
        st.lists(st.integers(1, 4), min_size=len(picks), max_size=len(picks)),
        label="copies",
    )
    rows = [pool[p] for p, r in zip(picks, repeats) for _ in range(r)]
    order = data.draw(st.permutations(range(len(rows))), label="order")
    rows = [rows[i] for i in order]
    executor, workers = data.draw(
        st.sampled_from([("serial", 1), ("process", 1), ("process", 2)]),
        label="executor",
    )
    segment = data.draw(st.integers(2, 7), label="segment")
    relation = Relation(model.schema, complete + rows)
    # The same relation with every later copy of a row dropped.
    deduped = Relation(model.schema, complete + list(dict.fromkeys(rows)))
    config = DeriveConfig(**CONFIG, executor=executor, workers=workers)

    tracker = ProgressTracker(workers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", segment)
        result = derive_probabilistic_database(
            relation,
            config=config,
            model=model,
            on_plan=tracker.on_plan,
            on_shard=tracker.on_shard,
        )
        reference = derive_probabilistic_database(
            deduped, config=DeriveConfig(**CONFIG), model=model
        )

    blocks = result.database.blocks
    assert len(blocks) == len(rows)
    firsts = {}
    for block in blocks:
        first = firsts.setdefault(block.base.codes.tobytes(), block)
        assert block is first
    by_row = {b.base.codes.tobytes(): b for b in reference.database.blocks}
    assert len(by_row) == len(firsts)
    for key, block in firsts.items():
        want = by_row[key]
        assert block.distribution.outcomes == want.distribution.outcomes
        assert block.distribution.probs.tobytes() == want.distribution.probs.tobytes()

    singles = [b for b in firsts.values() if b.base.num_missing == 1]
    naive = single_missing_blocks(
        [b.base for b in singles], model, engine="naive"
    )
    for got, want in zip(singles, naive):
        assert got.distribution.outcomes == want.distribution.outcomes
        assert got.distribution.probs.tobytes() == want.distribution.probs.tobytes()

    report = result.exec_report
    assert report.num_tuples == len(rows)
    assert sum(t.tuples for t in report.timings) == len(rows)
    snapshot = tracker.snapshot()
    assert snapshot.tuples_total == snapshot.tuples_done == len(rows)


# -- the numbering and packing primitives ------------------------------------------


def _reference_first_occurrence(codes):
    number = {}
    rows = [number.setdefault(row.tobytes(), len(number)) for row in codes]
    first = {}
    for i, k in enumerate(rows):
        first.setdefault(k, i)
    return list(first.values()), rows


@pytest.mark.parametrize("top, void", [(3, False), (40_000, True)])
def test_first_occurrence_numbering(top, void, monkeypatch):
    """Packed int64 keys (small value spaces) and void rows (``top`` large
    enough that 6 columns overflow 62 bits) number rows alike."""
    rng = np.random.default_rng(top)
    codes = rng.integers(-1, 3, size=(400, 6)).astype(np.int32)
    codes[::7] = top - np.arange(6)
    calls = []
    unique_rows = plan_module.unique_rows
    monkeypatch.setattr(
        plan_module, "unique_rows", lambda m: calls.append(m) or unique_rows(m)
    )
    first, rows = plan_module._first_occurrence(codes)
    assert bool(calls) == void
    want_first, want_rows = _reference_first_occurrence(codes)
    assert first.tolist() == want_first
    assert rows.tolist() == want_rows


def _reference_packing(sizes, num_bins):
    import heapq

    loads = [(0, b) for b in range(num_bins)]
    bin_of = [0] * len(sizes)
    for g in sorted(range(len(sizes)), key=lambda g: (-sizes[g], g)):
        load, b = loads[0]
        bin_of[g] = b
        heapq.heapreplace(loads, (load + sizes[g], b))
    return bin_of


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=60),
    num_bins=st.integers(1, 9),
    run=st.integers(1, 8),
)
def test_run_packing_equals_one_group_at_a_time(sizes, num_bins, run):
    num_bins = min(num_bins, len(sizes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_module, "_PACK_RUN", run)
        got = plan_module._pack_largest_first(np.array(sizes), num_bins)
    assert got.tolist() == _reference_packing(sizes, num_bins)


# -- delta and resume with copies ------------------------------------------------


@pytest.fixture(scope="module")
def census():
    """A census relation whose incomplete rows come in several copies."""
    rng = np.random.default_rng(43)
    train, _ = load_census(300, rng)
    test, _ = load_census(36, rng)
    masked = list(mask_relation(test, (1, 1, 2, 3), rng))
    copies = rng.integers(1, 4, size=len(masked))
    rows = [t for t, c in zip(masked, copies) for _ in range(c)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    relation = Relation(train.schema, list(train) + rows)
    model = learn_mrsl(relation, support_threshold=0.02).model
    return relation, model


def _delta_equals_scratch(relation, model, ops):
    baseline = derive_probabilistic_database(
        relation, config=DeriveConfig(**CONFIG), model=model
    )
    updated = relation.copy()
    updated.apply_changeset(ChangeSet(ops))
    delta = derive_probabilistic_database(
        updated, config=DeriveConfig(**CONFIG), previous=baseline
    )
    scratch = derive_probabilistic_database(
        updated,
        config=DeriveConfig(**CONFIG),
        model=model,
        rng=baseline.base_seed,
    )
    _assert_same_bytes(delta.database, scratch.database)
    assert delta.exec_report.carried_tuples > 0
    assert delta.exec_report.num_tuples == len(delta.database.blocks)
    return delta


def _copy_into(relation, source, target):
    """An update turning row ``target`` into a copy of row ``source`` (the
    two miss the same attributes)."""
    src, dst = relation[source], relation[target]
    assert src.missing_positions == dst.missing_positions
    cells = {
        relation.schema[p].name: src.values()[p]
        for p in range(len(relation.schema))
        if p not in src.missing_positions
    }
    return update(target, cells)


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_delta_when_a_row_becomes_a_copy_of_another(census, kind):
    relation, model = census
    want = (lambda n: n == 1) if kind == "single" else (lambda n: n > 1)
    by_pattern = {}
    for i, t in enumerate(relation):
        if t.num_missing and want(t.num_missing):
            by_pattern.setdefault(t.missing_positions, {}).setdefault(
                t.codes.tobytes(), i
            )
    source, target = next(
        list(rows.values())[:2] for rows in by_pattern.values() if len(rows) > 1
    )
    delta = _delta_equals_scratch(relation, model, [_copy_into(relation, source, target)])
    copies = [b for b in delta.database.blocks if b.base == relation[source]]
    assert len(copies) >= 2 and all(b is copies[0] for b in copies)


@pytest.mark.parametrize("kind", ["single", "multi"])
def test_delta_when_one_of_several_copies_changes(census, kind):
    relation, model = census
    want = (lambda n: n == 1) if kind == "single" else (lambda n: n > 1)
    positions = {}
    for i, t in enumerate(relation):
        if t.num_missing and want(t.num_missing):
            positions.setdefault(t.codes.tobytes(), []).append(i)
    rows = next(rows for rows in positions.values() if len(rows) > 1)
    t = relation[rows[0]]
    p = next(p for p in range(len(t.schema)) if p not in t.missing_positions)
    attr = t.schema[p]
    other = next(v for v in attr.domain if v != t.values()[p])
    delta = _delta_equals_scratch(relation, model, [update(rows[-1], {attr.name: other})])
    kept = [b for b in delta.database.blocks if b.base == t]
    assert len(kept) == len(rows) - 1 and all(b is kept[0] for b in kept)


def _per_copy_records(records, relation_rows):
    """Journal rows as they were written before rows were deduplicated:
    one block per workload row, each copy rooted at its own tuple."""
    out = []
    for key, kind, blocks in records:
        by_row = {b.base.codes.tobytes(): b for b in blocks}
        expanded = [
            TupleBlock._trusted(t, by_row[t.codes.tobytes()].distribution)
            for t in relation_rows
            if t.codes.tobytes() in by_row
        ]
        assert len(expanded) >= len(blocks)
        out.append((key, kind, pickle.loads(pickle.dumps(expanded))))
    return out


def test_resume_from_a_journal_with_one_block_per_copy(census, monkeypatch):
    # Small segments fused in pairs: several multi shards, so the ones
    # before the failing last shard journal multi segments.
    monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_SHARD", 4)
    monkeypatch.setattr(plan_module, "MULTI_TUPLES_PER_ENSEMBLE", 8)
    relation, model = census
    config = DeriveConfig(**CONFIG, shard_retries=0)
    plans = []
    clean = derive_probabilistic_database(
        relation, config=config, model=model, on_plan=plans.append
    )
    # Fail the last shard: every other shard completes and is journaled.
    last = plans[0].shards[-1].key
    fault = FaultPlan(faults=(ShardFault(kind="error", key=last),))
    monkeypatch.setenv(FAULT_PLAN_ENV, fault.to_json())
    records, seeds = [], []
    with pytest.raises(ShardExecutionError):
        derive_probabilistic_database(
            relation,
            config=config,
            model=model,
            on_plan=lambda plan: seeds.append(plan.base_seed),
            on_shard=lambda result: records.extend(result.records()),
        )
    monkeypatch.delenv(FAULT_PLAN_ENV)
    assert any(kind == "multi" for _, kind, _ in records)
    incomplete = [t for t in relation if t.num_missing]
    old_style = _per_copy_records(records, incomplete)
    assert sum(len(b) for _, _, b in old_style) > sum(len(b) for _, _, b in records)
    for journal in (records, old_style):
        carry = CarryStore.from_shards(journal, seeds[0])
        resumed = derive_probabilistic_database(
            relation, config=config, model=model, resume_carry=carry
        )
        _assert_same_bytes(resumed.database, clean.database)
        assert resumed.exec_report.carried_tuples > 0
        assert [t.key for t in resumed.exec_report.timings if not t.carried] == [last]


# -- the pinned digest ------------------------------------------------------------


#: ``_digest`` of :func:`test_duplicated_census_digest_is_pinned`'s derive,
#: as derived before distinct-row planning (one plan entry per copy).
PINNED_DIGEST = "5676c58d50c68a7528de1f34afcf7036f322d6377f95feac06b0aa8846c0bd70"


def test_duplicated_census_digest_is_pinned(census):
    relation, model = census
    result = derive_probabilistic_database(
        relation, config=DeriveConfig(**CONFIG), model=model
    )
    assert _digest(result.database) == PINNED_DIGEST
    for executor, workers in (("serial", 2), ("process", 2)):
        other = derive_probabilistic_database(
            relation,
            config=DeriveConfig(**CONFIG, executor=executor, workers=workers),
            model=model,
        )
        assert _digest(other.database) == PINNED_DIGEST
