"""Deterministic fault injection against the derivation runtime.

The contract under test: an injected shard failure — error, worker crash,
or hang past the deadline — is retried/recovered and the derived database
is *bit-identical* to a fault-free run, with every failed attempt surfaced
in the :class:`~repro.exec.base.ExecReport`.
"""

import multiprocessing
import time

import pytest

from repro.api.config import DeriveConfig
from repro.core.lazy import LazyDeriver
from repro.core.learning import learn_mrsl
from repro.exec import (
    FaultPlan,
    ShardFault,
    ShardExecutionError,
    WorkerPoolError,
    bind_faults,
    execute_derivation,
    plan_shards,
    resolve_fault_plan,
    stream_derivation,
)
from repro.exec.faults import FAULT_PLAN_ENV


def _config(**overrides):
    base = dict(
        support_threshold=0.1, num_samples=20, burn_in=3, seed=11,
        executor="serial", workers=1,
    )
    base.update(overrides)
    return DeriveConfig(**base)


def assert_identical_blocks(a, b):
    assert len(a) == len(b)
    for ba, bb in zip(a, b):
        assert ba.base == bb.base
        assert ba.distribution.outcomes == bb.distribution.outcomes
        assert (ba.distribution.probs == bb.distribution.probs).all()


@pytest.fixture()
def fig1_model(fig1_relation):
    return learn_mrsl(fig1_relation, support_threshold=0.1).model


@pytest.fixture()
def fig1_tuples(fig1_relation):
    return list(fig1_relation.incomplete_part())


@pytest.fixture()
def baseline(fig1_tuples, fig1_model):
    return execute_derivation(fig1_tuples, fig1_model, _config())


# -- the plan format ---------------------------------------------------------


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(faults=(
            ShardFault(kind="error", index=0, attempt=2),
            ShardFault(kind="hang", key="abc", delay=0.5),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_coerce_accepts_bare_fault_list(self):
        plan = FaultPlan.coerce([{"kind": "crash", "index": 1}])
        assert plan.faults[0].kind == "crash"
        assert plan.faults[0].attempt == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ShardFault(kind="explode", index=0)
        with pytest.raises(ValueError, match="selector"):
            ShardFault(kind="error")
        with pytest.raises(ValueError, match="1-based"):
            ShardFault(kind="error", index=0, attempt=0)

    def test_from_env_json_and_file(self, monkeypatch, tmp_path):
        plan = FaultPlan(faults=(ShardFault(kind="error", index=0),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert FaultPlan.from_env() == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(FAULT_PLAN_ENV, f"@{path}")
        assert FaultPlan.from_env() == plan
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert FaultPlan.from_env() is None

    def test_resolution_order(self, monkeypatch):
        env_plan = FaultPlan(faults=(ShardFault(kind="error", index=9),))
        monkeypatch.setenv(FAULT_PLAN_ENV, env_plan.to_json())
        explicit = FaultPlan(faults=(ShardFault(kind="error", index=0),))
        assert resolve_fault_plan(explicit) == explicit
        assert resolve_fault_plan(None) == env_plan
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert resolve_fault_plan(None) is None

    def test_bind_ignores_out_of_range_index(self, fig1_tuples, fig1_model):
        plan = plan_shards(fig1_tuples, fig1_model, seed=11)
        faults = FaultPlan(faults=(
            ShardFault(kind="error", index=0),
            ShardFault(kind="error", index=10_000),
        ))
        bound = bind_faults(faults, plan)
        assert list(bound) == [(plan.shards[0].key, 1)]

    def test_bind_key_selector_wins(self, fig1_tuples, fig1_model):
        plan = plan_shards(fig1_tuples, fig1_model, seed=11)
        target = plan.shards[-1].key
        bound = bind_faults(
            FaultPlan(faults=(ShardFault(kind="error", key=target, index=0),)),
            plan,
        )
        assert list(bound) == [(target, 1)]


# -- retries keep results bit-identical --------------------------------------


class TestErrorRetry:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_one_error_is_retried_bit_identically(
        self, executor, fig1_tuples, fig1_model, baseline
    ):
        faults = FaultPlan(faults=(
            ShardFault(kind="error", index=0, attempt=1),
        ))
        out = execute_derivation(
            fig1_tuples, fig1_model,
            _config(executor=executor, workers=2, shard_retries=1),
            faults=faults,
        )
        assert_identical_blocks(out.blocks, baseline.blocks)
        report = out.report
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.attempt == 1
        assert not failure.fatal
        assert failure.backoff > 0
        assert "FaultInjected" in failure.error or "injected" in failure.error
        retried = [t for t in report.timings if t.key == failure.key]
        assert retried and retried[0].attempts == 2

    def test_exhausted_retries_raise_with_report(
        self, fig1_tuples, fig1_model
    ):
        faults = FaultPlan(faults=(
            ShardFault(kind="error", index=0, attempt=1),
            ShardFault(kind="error", index=0, attempt=2),
        ))
        with pytest.raises(ShardExecutionError) as excinfo:
            execute_derivation(
                fig1_tuples, fig1_model, _config(shard_retries=1),
                faults=faults,
            )
        exc = excinfo.value
        assert exc.report is not None
        assert exc.failure is not None and exc.failure.fatal
        assert exc.report.failures[-1].fatal
        assert exc.report.failures[-1].backoff == 0.0

    def test_zero_retries_fail_on_first_error(self, fig1_tuples, fig1_model):
        faults = FaultPlan(faults=(ShardFault(kind="error", index=0),))
        with pytest.raises(ShardExecutionError):
            execute_derivation(
                fig1_tuples, fig1_model, _config(shard_retries=0),
                faults=faults,
            )


# -- faults after the pool is wound down -------------------------------------


def _last_submitted_key(tuples, model):
    """The key of the shard a process run submits last: multi shards go
    first, so it is the plan's last single shard when it has one.  Its
    submission empties the queue and winds the pool down, so any fault on
    its first attempt strikes after the wind-down."""
    from repro.exec.base import effective_workers

    plan = plan_shards(
        tuples, model, workers=effective_workers("process", 2), seed=11
    )
    assert len(plan.shards) > 1
    return sorted(plan.shards, key=lambda s: s.kind != "multi")[-1].key


def _attempts(report):
    return {t.key: t.attempts for t in report.timings}


class TestAfterWindDown:
    def test_error_on_the_last_submitted_shard_is_retried(
        self, fig1_tuples, fig1_model, baseline
    ):
        """A shard requeued after the wind-down still runs, on a new pool
        that is no pool death: blocks, attempts, failures and restarts
        are those of the same fault on the serial executor."""
        key = _last_submitted_key(fig1_tuples, fig1_model)
        faults = FaultPlan(faults=(ShardFault(kind="error", key=key),))
        runs = {
            executor: execute_derivation(
                fig1_tuples, fig1_model,
                _config(executor=executor, workers=2, shard_retries=1),
                faults=faults,
            )
            for executor in ("serial", "process")
        }
        assert_identical_blocks(runs["process"].blocks, baseline.blocks)
        serial, process = runs["serial"].report, runs["process"].report
        for report in (serial, process):
            assert [(f.key, f.attempt, f.fatal) for f in report.failures] == [
                (key, 1, False)
            ]
            assert report.pool_restarts == 0
        assert [
            (f.key, f.kind, f.attempt, f.backoff, f.fatal)
            for f in process.failures
        ] == [
            (f.key, f.kind, f.attempt, f.backoff, f.fatal)
            for f in serial.failures
        ]
        assert _attempts(process) == _attempts(serial)
        assert _attempts(process)[key] == 2

    def test_crash_on_the_last_submitted_shard_rebuilds_the_pool(
        self, fig1_tuples, fig1_model, baseline
    ):
        key = _last_submitted_key(fig1_tuples, fig1_model)
        out = execute_derivation(
            fig1_tuples, fig1_model,
            _config(executor="process", workers=2, shard_retries=1),
            faults=FaultPlan(faults=(ShardFault(kind="crash", key=key),)),
        )
        assert_identical_blocks(out.blocks, baseline.blocks)
        assert out.report.pool_restarts == 1
        assert any(f.key == key and "crash" in f.error for f in out.report.failures)

    def test_hang_on_the_last_submitted_shard_is_killed(
        self, fig1_tuples, fig1_model, baseline
    ):
        """The wound-down pool no longer lists its workers; the hung one
        is killed all the same, and reaped."""
        key = _last_submitted_key(fig1_tuples, fig1_model)
        out = execute_derivation(
            fig1_tuples, fig1_model,
            _config(
                executor="process", workers=2,
                shard_retries=1, shard_deadline=1.0,
            ),
            faults=FaultPlan(
                faults=(ShardFault(kind="hang", key=key, delay=30.0),)
            ),
        )
        assert_identical_blocks(out.blocks, baseline.blocks)
        assert out.report.pool_restarts == 1
        assert any(f.key == key and "deadline" in f.error for f in out.report.failures)
        assert _workers_reaped()


# -- worker-crash recovery ---------------------------------------------------


class TestWorkerCrash:
    def test_crashed_pool_is_rebuilt_bit_identically(
        self, fig1_tuples, fig1_model, baseline
    ):
        faults = FaultPlan(faults=(ShardFault(kind="crash", index=0),))
        out = execute_derivation(
            fig1_tuples, fig1_model,
            _config(executor="process", workers=2, shard_retries=1),
            faults=faults,
        )
        assert_identical_blocks(out.blocks, baseline.blocks)
        assert out.report.pool_restarts >= 1
        assert any("crash" in f.error for f in out.report.failures)

    def test_repeated_crashes_raise_pool_error_when_strict(
        self, fig1_tuples, fig1_model
    ):
        faults = FaultPlan(faults=tuple(
            ShardFault(kind="crash", index=0, attempt=a) for a in (1, 2, 3)
        ))
        with pytest.raises(WorkerPoolError) as excinfo:
            execute_derivation(
                fig1_tuples, fig1_model,
                _config(executor="process", workers=1, shard_retries=5),
                faults=faults,
            )
        report = excinfo.value.report
        assert report is not None
        assert report.pool_restarts >= 2

    def test_degrade_policy_falls_back_to_serial(
        self, fig1_tuples, fig1_model, baseline
    ):
        faults = FaultPlan(faults=tuple(
            ShardFault(kind="crash", index=0, attempt=a) for a in (1, 2, 3)
        ))
        out = execute_derivation(
            fig1_tuples, fig1_model,
            _config(
                executor="process", workers=1, shard_retries=5,
                failure_policy="degrade",
            ),
            faults=faults,
        )
        assert_identical_blocks(out.blocks, baseline.blocks)
        assert "process->serial" in out.report.degraded
        assert out.report.pool_restarts == 3

    def test_crash_downgrades_to_error_in_serial(
        self, fig1_tuples, fig1_model, baseline
    ):
        faults = FaultPlan(faults=(ShardFault(kind="crash", index=0),))
        out = execute_derivation(
            fig1_tuples, fig1_model, _config(shard_retries=1), faults=faults
        )
        assert_identical_blocks(out.blocks, baseline.blocks)
        assert len(out.report.failures) == 1


# -- hang detection via the shard deadline -----------------------------------


class TestHangDeadline:
    def test_hung_shard_is_killed_and_requeued(
        self, fig1_tuples, fig1_model, baseline
    ):
        faults = FaultPlan(faults=(
            ShardFault(kind="hang", index=0, delay=30.0),
        ))
        out = execute_derivation(
            fig1_tuples, fig1_model,
            _config(
                executor="process", workers=2,
                shard_retries=1, shard_deadline=1.0,
            ),
            faults=faults,
        )
        assert_identical_blocks(out.blocks, baseline.blocks)
        assert out.report.pool_restarts >= 1
        assert any("deadline" in f.error for f in out.report.failures)


# -- the streaming collector reaps its pools (regression) --------------------


def _workers_reaped(timeout: float = 10.0) -> bool:
    """Whether every worker process exits (and is joined) within ``timeout``."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestStreamCleanup:
    def test_abandoned_stream_reaps_worker_processes(
        self, fig1_tuples, fig1_model
    ):
        stream = stream_derivation(
            fig1_tuples, fig1_model, _config(executor="process", workers=2)
        )
        next(stream)
        assert multiprocessing.active_children()
        stream.close()
        assert _workers_reaped()

    def test_lazy_prefetch_closes_stream_when_caching_raises(
        self, fig1_relation
    ):
        deriver = LazyDeriver(
            fig1_relation,
            config=DeriveConfig(
                support_threshold=0.1, num_samples=20, burn_in=3,
                executor="process", workers=2,
            ),
            rng=11,
        )

        class ExplodingCache(dict):
            def __setitem__(self, key, value):
                raise RuntimeError("cache full")

        deriver._cache = ExplodingCache()
        with pytest.raises(RuntimeError, match="cache full") as excinfo:
            deriver.prefetch(list(fig1_relation.incomplete_part()))
        # Checked while the traceback (and so prefetch's frame and its
        # stream) is still alive: reaping must come from prefetch closing
        # the stream, not from the generator being garbage-collected.
        assert excinfo.traceback
        assert _workers_reaped()


# -- failures and degradations land on the report wire form ------------------


def test_report_wire_form_carries_fault_fields(
    fig1_tuples, fig1_model
):
    faults = FaultPlan(faults=(ShardFault(kind="error", index=0),))
    out = execute_derivation(
        fig1_tuples, fig1_model, _config(shard_retries=1), faults=faults
    )
    doc = out.report.to_dict()
    assert doc["pool_restarts"] == 0
    assert doc["degraded"] == []
    assert len(doc["failures"]) == 1
    assert doc["failures"][0]["attempt"] == 1
    assert "failed attempts" in out.report.summary()
