"""Process workers: fork-inherited state vs the JSON rebuild.

A single-threaded parent forks its pool, and the workers inherit the
parent's model, its one engine and planned shards as the pool
initializer's arguments, which fork hands over unpickled: no model
document is built or parsed, and a submission is just the shard key.  A multithreaded parent
starts a forkserver or spawn pool, whose workers rebuild the model from its
JSON form and receive :class:`~repro.exec.work.ShardTask` code matrices.
Both paths must equal the serial executor block for block and survive the
pool-kill, hang and degrade chaos cases.
"""

import multiprocessing
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.config import DeriveConfig
from repro.bench.masking import mask_relation
from repro.core import persistence
from repro.core.engine import BatchInferenceEngine
from repro.core.learning import learn_mrsl
from repro.datasets.census import load_census
from repro.exec import (
    FaultPlan,
    ShardFault,
    WorkerPoolError,
    execute_derivation,
    stream_derivation,
)
from repro.exec.executors import ProcessExecutor, SerialExecutor, host_cpus
from repro.exec.work import ShardTask
from tests.test_process_wire import _assert_rebound, _live_thread


def _config(**overrides):
    base = dict(
        support_threshold=0.02, num_samples=30, burn_in=3, seed=13,
        executor="process", workers=2,
    )
    base.update(overrides)
    return DeriveConfig(**base)


@pytest.fixture(scope="module")
def census():
    rng = np.random.default_rng(41)
    train, _ = load_census(400, rng)
    model = learn_mrsl(train, support_threshold=0.02).model
    singles = list(mask_relation(load_census(300, rng)[0], 1, rng))
    multis = list(mask_relation(load_census(150, rng)[0], (2, 3), rng))
    return model, singles + multis


@pytest.fixture(scope="module")
def serial(census):
    model, tuples = census
    return execute_derivation(
        tuples, model, _config(executor="serial", workers=1)
    )


def _refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} called on the inherited path")

    return refused


@pytest.fixture()
def start_methods(monkeypatch):
    """The start method of every pool the executor builds."""
    methods = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return methods


@pytest.fixture()
def forked(monkeypatch, start_methods):
    """Force the fork path, and make every rebuild step raise.

    The patches are made in the parent before the pool forks, so a worker
    that rebuilt the model or decoded a task would raise too.
    """
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(persistence, "model_to_dict", _refuse("model_to_dict"))
    monkeypatch.setattr(
        persistence, "model_from_dict", _refuse("model_from_dict")
    )
    monkeypatch.setattr(ShardTask, "encode", _refuse("ShardTask.encode"))
    monkeypatch.setattr(ShardTask, "decode", _refuse("ShardTask.decode"))
    yield start_methods
    assert start_methods and set(start_methods) == {"fork"}


# -- the inherited path ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_forked_workers_rebuild_nothing(forked, census, serial, workers):
    model, tuples = census
    out = execute_derivation(tuples, model, _config(workers=workers))
    _assert_rebound(out.blocks, serial.blocks, tuples)
    assert out.stats == serial.stats


@pytest.mark.parametrize("caller_engine", [True, False], ids=["caller", "own"])
def test_forked_workers_construct_no_engine(
    forked, monkeypatch, census, serial, caller_engine
):
    """Workers run on the parent's one engine, the caller's or the one the
    derive built: an engine constructed in a worker raises there, which
    would break the pool."""
    model, tuples = census
    parent = os.getpid()
    construct = BatchInferenceEngine.__init__

    def in_the_parent_only(self, *args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a forked worker constructed an engine")
        construct(self, *args, **kwargs)

    engine = BatchInferenceEngine(model) if caller_engine else None
    monkeypatch.setattr(BatchInferenceEngine, "__init__", in_the_parent_only)
    out = execute_derivation(tuples, model, _config(), batch_engine=engine)
    _assert_rebound(out.blocks, serial.blocks, tuples)
    assert out.report.pool_restarts == 0 and not out.report.failures
    if caller_engine:
        assert out.engine is engine
    else:
        assert out.engine.model is model


def test_forked_workers_compare_the_inherited_digests(
    forked, monkeypatch, census, serial
):
    """Lattices the parent fingerprinted keep their digests: neither the
    parent's handshake nor a forked worker's check hashes one again (a
    worker that did would fail in its initializer)."""
    from repro.core import compiled as compiled_module

    model, tuples = census
    engine = BatchInferenceEngine(model)
    persistence.compiled_metadata(model)

    def refused(*args):
        raise AssertionError("hashed a lattice again")

    monkeypatch.setattr(
        compiled_module, "hashlib", SimpleNamespace(sha256=refused)
    )
    out = execute_derivation(tuples, model, _config(), batch_engine=engine)
    _assert_rebound(out.blocks, serial.blocks, tuples)


def test_a_process_derive_leaves_no_thread_behind(
    start_methods, census, serial
):
    """The pool's manager and queue feeder threads are joined before a
    run returns, so back-to-back derives in a single-threaded parent both
    fork instead of racing those threads' exit."""
    model, tuples = census
    before = set(threading.enumerate())
    for _ in range(2):
        out = execute_derivation(tuples, model, _config())
        _assert_rebound(out.blocks, serial.blocks, tuples)
        assert set(threading.enumerate()) <= before
    if before == {threading.main_thread()}:
        assert start_methods == ["fork", "fork"]


def test_an_interleaved_second_stream_also_inherits(forked, census, serial):
    """A derive forked while another stream's pool still runs gets its own
    inherited state: no model document is built (the ``forked`` fixture
    makes ``model_to_dict`` raise), the derive equals the serial run, and
    the first stream still runs every shard."""
    model, tuples = census
    first = stream_derivation(tuples, model, _config())
    results = [next(first)]
    try:
        out = execute_derivation(tuples, model, _config())
        results.extend(first)
    finally:
        first.close()
    _assert_rebound(out.blocks, serial.blocks, tuples)
    assert sorted(r.key for r in results) == sorted(s.key for s in out.plan.shards)


# -- the JSON path ---------------------------------------------------------------


def test_multithreaded_parent_rebuilds_from_json(
    monkeypatch, start_methods, census, serial
):
    calls = []
    to_dict, encode = persistence.model_to_dict, ShardTask.encode.__func__

    def counting_to_dict(model):
        calls.append("model_to_dict")
        return to_dict(model)

    def counting_encode(cls, shard):
        calls.append("encode")
        return encode(cls, shard)

    monkeypatch.setattr(persistence, "model_to_dict", counting_to_dict)
    monkeypatch.setattr(ShardTask, "encode", classmethod(counting_encode))
    model, tuples = census
    with _live_thread():
        assert threading.active_count() > 1
        out = execute_derivation(tuples, model, _config())
        assert start_methods and "fork" not in start_methods
    assert calls.count("model_to_dict") == 1
    assert calls.count("encode") == len(out.plan.shards)
    _assert_rebound(out.blocks, serial.blocks, tuples)


# -- chaos on the inherited path -------------------------------------------------


def test_killed_pool_re_forks_with_the_same_state(forked, census, serial):
    model, tuples = census
    out = execute_derivation(
        tuples, model, _config(shard_retries=1),
        faults=FaultPlan(faults=(ShardFault(kind="crash", index=0),)),
    )
    _assert_rebound(out.blocks, serial.blocks, tuples)
    assert out.report.pool_restarts >= 1
    assert any("crash" in f.error for f in out.report.failures)


def test_hung_shard_is_requeued_on_a_re_forked_pool(forked, census, serial):
    model, tuples = census
    out = execute_derivation(
        tuples, model,
        _config(shard_retries=1, shard_deadline=1.0),
        faults=FaultPlan(faults=(ShardFault(kind="hang", index=0, delay=30.0),)),
    )
    _assert_rebound(out.blocks, serial.blocks, tuples)
    assert out.report.pool_restarts >= 1
    assert any("deadline" in f.error for f in out.report.failures)


_THREE_CRASHES = FaultPlan(faults=tuple(
    ShardFault(kind="crash", index=0, attempt=a) for a in (1, 2, 3)
))


def test_degrade_after_pool_deaths_equals_serial(forked, census, serial):
    model, tuples = census
    out = execute_derivation(
        tuples, model,
        _config(workers=1, shard_retries=5, failure_policy="degrade"),
        faults=_THREE_CRASHES,
    )
    _assert_rebound(out.blocks, serial.blocks, tuples)
    assert "process->serial" in out.report.degraded
    assert out.report.pool_restarts == 3


def test_pool_error_clears_the_inherited_state(forked, census):
    """A pool that dies past its retries raises on the fork path too; its
    inherited state lived only in the pool's initializer arguments."""
    model, tuples = census
    with pytest.raises(WorkerPoolError):
        execute_derivation(
            tuples, model, _config(workers=1, shard_retries=5),
            faults=_THREE_CRASHES,
        )


# -- the pool is sized to the host -----------------------------------------------


def test_pool_size_is_capped_by_the_host(monkeypatch):
    assert ProcessExecutor(64).effective_workers == host_cpus()
    assert ProcessExecutor(64).workers == 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ProcessExecutor(3).effective_workers == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert ProcessExecutor(4).effective_workers == 3
    assert ProcessExecutor(2).effective_workers == 2
    assert SerialExecutor(4).effective_workers == 1


def test_oversized_pool_plans_and_runs_host_cpus(census, serial):
    model, tuples = census
    out = execute_derivation(tuples, model, _config(workers=64))
    assert out.report.workers == host_cpus()
    assert len(out.plan.multi_shards) <= host_cpus()
    _assert_rebound(out.blocks, serial.blocks, tuples)
