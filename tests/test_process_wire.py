"""The process executor's columnar wire.

On a forkserver or spawn pool a shard travels to a worker as a
:class:`~repro.exec.work.ShardTask` (key, kind, segments and one int32 code
matrix); on a forked pool it travels as its key (see
``tests/test_process_inherit.py``).  Either way it comes back as a
:class:`~repro.exec.work.ShardOutput` (one distribution per entry), which
the parent rebinds to its own tuples.  These tests pin the process path to
the serial one block for block, check that the rebound blocks hold the
parent's tuple objects, that the task stays a code matrix, and that a
result which does not fit its shard raises instead of landing in the
database.
"""

import contextlib
import dataclasses
import multiprocessing
import pickle
import threading

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.bench.masking import mask_relation
from repro.core.compiled import CompiledMRSL
from repro.core.learning import learn_mrsl
from repro.core.persistence import model_from_dict, model_to_dict
from repro.datasets.census import load_census
from repro.exec import (
    FaultPlan,
    Shard,
    ShardExecutionError,
    ShardFault,
    execute_derivation,
)
from repro.exec import work
from repro.exec.work import ShardTask
from repro.probdb import Distribution
from repro.probdb.blocks import TupleBlock
from repro.relational import Relation, RelTuple, Schema


def _config(**overrides):
    base = dict(
        support_threshold=0.02, num_samples=30, burn_in=3, seed=13,
        executor="serial", workers=1,
    )
    base.update(overrides)
    return DeriveConfig(**base)


@pytest.fixture(scope="module")
def census():
    rng = np.random.default_rng(29)
    train, _ = load_census(400, rng)
    model = learn_mrsl(train, support_threshold=0.02).model
    singles = list(mask_relation(load_census(300, rng)[0], 1, rng))
    multis = list(mask_relation(load_census(120, rng)[0], (2, 3), rng))
    return model, singles, multis


def _edge_workload():
    """Single-missing tuples over an empty signature and over no rules.

    At support 0.6 ``a0`` (constant) keeps only its empty-body meta-rule,
    so its signature is empty; no value of ``a1`` or ``a2`` is frequent, so
    they have no meta-rules at all.
    """
    schema = Schema.from_domains(
        {"a0": ["v0", "v1"], "a1": [f"v{j}" for j in range(6)], "a2": ["v0", "v1"]}
    )
    rows = [(0, i % 6, (i // 6) % 2) for i in range(24)]
    train = Relation.from_codes(schema, np.asarray(rows, dtype=np.int32))
    model = learn_mrsl(train, support_threshold=0.6).model
    assert model.compiled[0].signature_attrs.size == 0
    tuples = [
        RelTuple(schema, codes)
        for codes in (
            [-1, 1, 0], [-1, 2, 1], [0, -1, 1], [0, -1, 1], [1, 3, -1],
            [0, 3, -1], [-1, 1, 0],
        )
    ]
    return model, tuples


@pytest.fixture(scope="module")
def workloads(census):
    model, singles, multis = census
    repeated = singles[:6] + multis[:6]
    # Equal tuples as separate objects, and one object several times.
    duplicates = [RelTuple(t.schema, t.codes) for t in repeated * 3]
    duplicates += repeated[:2] * 2
    return {
        "single": (model, singles),
        "multi": (model, multis),
        "empty_signature": _edge_workload(),
        "duplicates": (model, duplicates),
    }


@pytest.fixture(scope="module")
def serial(workloads):
    return {
        name: execute_derivation(tuples, model, _config())
        for name, (model, tuples) in workloads.items()
    }


def _assert_rebound(got, want, tuples):
    """``got`` equals ``want`` block for block and holds ``tuples``."""
    assert len(got) == len(want) == len(tuples)
    for t, g, w in zip(tuples, got, want):
        assert g.base is t
        assert g.distribution.outcomes == w.distribution.outcomes
        assert g.distribution.probs.tobytes() == w.distribution.probs.tobytes()
        assert not g.distribution.probs.flags.writeable


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    "name", ["single", "multi", "empty_signature", "duplicates"]
)
def test_process_blocks_equal_serial(workloads, serial, name, workers):
    model, tuples = workloads[name]
    out = execute_derivation(
        tuples, model, _config(executor="process", workers=workers)
    )
    _assert_rebound(out.blocks, serial[name].blocks, tuples)
    assert out.stats == serial[name].stats


def test_task_ships_a_code_matrix_not_objects(census):
    model, _, _ = census
    rng = np.random.default_rng(3)
    tuples = tuple(mask_relation(load_census(2000, rng)[0], 1, rng))
    shard = Shard(
        key="single:wire", kind="single",
        indices=tuple(range(len(tuples))), tuples=tuples,
    )
    task = ShardTask.encode(shard)
    assert task.codes.dtype == np.int32
    assert task.codes.shape == (2000, len(model.schema))
    assert len(pickle.dumps(task)) <= task.codes.nbytes + 1024

    decoded = pickle.loads(pickle.dumps(task)).decode(model.schema)
    assert decoded.key == shard.key and decoded.kind == shard.kind
    assert decoded.tuples == tuples
    assert [t.missing_positions for t in decoded.tuples] == [
        t.missing_positions for t in tuples
    ]
    assert not decoded.tuples[0].codes.flags.writeable


@contextlib.contextmanager
def _live_thread():
    """A second live thread, which keeps the executor off the fork path."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def test_multithreaded_parent_uses_a_non_fork_pool(
    monkeypatch, workloads, serial
):
    methods = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    model, tuples = workloads["duplicates"]
    with _live_thread():
        out = execute_derivation(
            tuples, model, _config(executor="process", workers=2)
        )
    assert methods and "fork" not in methods
    _assert_rebound(out.blocks, serial["duplicates"].blocks, tuples)


def test_one_compiled_model_serves_planner_and_handshake(
    monkeypatch, workloads
):
    """A process derive compiles each lattice at most once in the parent.

    The model is rebuilt from its JSON form, so none of its lattices is
    compiled yet whatever ran before (a model keeps its lattices).
    """
    model, tuples = workloads["duplicates"]
    model = model_from_dict(model_to_dict(model))
    built = []
    init = CompiledMRSL.__init__

    def counting(self, mrsl, *args, **kwargs):
        built.append(mrsl.head_attribute)
        init(self, mrsl, *args, **kwargs)

    monkeypatch.setattr(CompiledMRSL, "__init__", counting)
    # Forked pool workers compile their own copies in their own memory;
    # ``built`` only sees the parent.
    execute_derivation(tuples, model, _config(executor="process", workers=2))
    assert sorted(built) == sorted(set(built))
    assert len(built) == len(model.schema)


# -- the parent rebinds, and refuses results that do not fit -----------------


def _patch_worker(monkeypatch, mutate):
    """Make pool workers return ``mutate(result)`` for every shard.

    The patched kernel reaches the workers by fork; faking a single-threaded
    parent keeps the executor on the fork start method.
    """
    run_shard = work.run_shard

    def patched(*args, **kwargs):
        return mutate(run_shard(*args, **kwargs))

    monkeypatch.setattr(work, "run_shard", patched)
    monkeypatch.setattr(threading, "active_count", lambda: 1)


def test_too_few_distributions_raise(monkeypatch, workloads):
    model, tuples = workloads["single"]
    _patch_worker(
        monkeypatch,
        lambda r: dataclasses.replace(r, blocks=r.blocks[1:]),
    )
    with pytest.raises(ShardExecutionError, match="distributions for") as info:
        execute_derivation(
            tuples, model,
            _config(executor="process", workers=2, shard_retries=0),
        )
    assert info.value.failure.fatal


def test_outcomes_outside_the_domains_raise(monkeypatch, workloads):
    model, tuples = workloads["single"]
    bogus = Distribution([("no-such-value",)], [1.0])

    def corrupt(result):
        last = result.blocks[-1]
        blocks = result.blocks[:-1] + (TupleBlock._trusted(last.base, bogus),)
        return dataclasses.replace(result, blocks=blocks)

    _patch_worker(monkeypatch, corrupt)
    with pytest.raises(
        ShardExecutionError, match="outside the missing attributes' domains"
    ):
        execute_derivation(
            tuples, model,
            _config(executor="process", workers=2, shard_retries=0),
        )


def test_requeued_shard_is_re_encoded_from_the_parent_shard(
    monkeypatch, workloads, serial
):
    encoded = []
    encode = ShardTask.encode.__func__

    def spy(cls, shard):
        encoded.append(shard.key)
        return encode(cls, shard)

    monkeypatch.setattr(ShardTask, "encode", classmethod(spy))
    model, tuples = workloads["duplicates"]
    # Only the non-fork pool encodes tasks; a forked one ships keys.
    with _live_thread():
        out = execute_derivation(
            tuples, model,
            _config(executor="process", workers=2, shard_retries=1),
            faults=FaultPlan(faults=(ShardFault(kind="crash", index=0),)),
        )
    assert out.report.pool_restarts >= 1
    crashed = {f.key for f in out.report.failures}
    assert crashed
    for key in crashed:
        assert encoded.count(key) == 2
    _assert_rebound(out.blocks, serial["duplicates"].blocks, tuples)
