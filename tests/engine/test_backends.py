"""Execution-backend protocol tests.

Backend selection (``executor=`` argument, ambient policy, ``auto``
fallback), and the core invariant of the refactor: serial, pool, and
dispatch execution produce identical results, retries, and metrics for
the same task list — including when attempt 1 times out or crashes and
attempt 2 succeeds.
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.backends import (
    DispatchBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_executor,
)
from repro.engine.chaos import ChaosPlan, Fault
from repro.engine.executor import Task, make_tasks, map_tasks
from repro.engine.faults import (
    ExecutionPolicy,
    RetryPolicy,
    execution_scope,
)
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.run_context import current_run, install_run


def _use_chaos(plan) -> None:
    """Put ``plan`` in the run context for the rest of the test."""
    install_run(replace(current_run(), chaos=plan))


FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    obs_metrics.install(None)


def _draw(task: Task) -> float:
    """Pickleable task function: one uniform from the task's seed."""
    return float(np.random.default_rng(task.seed).random())


def _pid(task: Task) -> int:
    return os.getpid()


def _profiled(task: Task) -> bool:
    """Whether the executing process runs under a profiler hook."""
    return sys.getprofile() is not None


class TestResolveExecutor:
    def test_mode_strings(self):
        assert isinstance(resolve_executor("serial", 8, 8), SerialBackend)
        assert isinstance(resolve_executor("pool", 1, 1), ProcessPoolBackend)
        assert isinstance(resolve_executor("dispatch", 1, 1), DispatchBackend)

    def test_auto_keeps_the_historical_choice(self):
        assert isinstance(resolve_executor("auto", 1, 8), SerialBackend)
        assert isinstance(resolve_executor("auto", 4, 1), SerialBackend)
        assert isinstance(resolve_executor("auto", 4, 8), ProcessPoolBackend)
        assert isinstance(resolve_executor(None, 4, 8), ProcessPoolBackend)

    def test_backend_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_executor(backend, 4, 8) is backend

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            resolve_executor("threads", 1, 1)

    def test_non_backend_object_rejected(self):
        with pytest.raises(TypeError, match="ExecutionBackend"):
            resolve_executor(object(), 1, 1)


class TestExecutorSelection:
    def test_serial_stays_in_process_despite_jobs(self):
        pids = map_tasks(_pid, make_tasks(range(4)), jobs=4, executor="serial")
        assert pids == [os.getpid()] * 4

    def test_pool_forces_worker_processes(self):
        pids = map_tasks(_pid, make_tasks(range(4)), jobs=2, executor="pool")
        assert os.getpid() not in pids

    def test_ambient_policy_supplies_executor(self):
        with execution_scope(ExecutionPolicy(executor="serial")):
            pids = map_tasks(_pid, make_tasks(range(4)), jobs=4)
        assert pids == [os.getpid()] * 4

    def test_explicit_argument_overrides_ambient_policy(self):
        with execution_scope(ExecutionPolicy(executor="serial")):
            pids = map_tasks(_pid, make_tasks(range(4)), jobs=2, executor="pool")
        assert os.getpid() not in pids

    def test_policy_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="executor"):
            ExecutionPolicy(executor="threads")

    def test_policy_accepts_backend_instance(self):
        assert isinstance(
            ExecutionPolicy(executor=SerialBackend()).executor, SerialBackend
        )


def _dispatch_backend(tmp_path) -> DispatchBackend:
    return DispatchBackend(
        tmp_path / "runs", local_workers=2, lease_timeout=5.0, poll=0.02
    )


class TestCrossBackendParity:
    def test_identical_draws_on_all_three_backends(self, tmp_path):
        tasks = make_tasks(range(8), root_seed=11)
        serial = map_tasks(_draw, tasks, executor="serial")
        pooled = map_tasks(_draw, tasks, jobs=4, executor="pool")
        backend = _dispatch_backend(tmp_path)
        try:
            dispatched = map_tasks(_draw, tasks, executor=backend)
        finally:
            backend.close()
        assert serial == pooled == dispatched

    def test_transient_crash_retry_parity(self, tmp_path):
        """Attempt 1 of task 2 raises, attempt 2 succeeds: every backend
        must land the same values and count exactly one retry."""
        tasks = make_tasks(range(5), root_seed=3)
        expected = map_tasks(_draw, tasks, executor="serial", stage="clean")

        def leg(executor, state_dir, **kwargs):
            _use_chaos(
                ChaosPlan(
                    state_dir=str(tmp_path / state_dir),
                    faults=(Fault(kind="raise", stage="flaky", index=2),),
                )
            )
            registry = obs_metrics.MetricsRegistry()
            obs_metrics.install(registry)
            try:
                out = map_tasks(
                    _draw, tasks, executor=executor, stage="flaky",
                    on_error="retry", retry=FAST_RETRY, **kwargs,
                )
            finally:
                obs_metrics.install(None)
                _use_chaos(None)
            return out, registry.counters

        # One chaos state dir per leg: the once-only marker must fire fresh.
        serial_out, serial_counters = leg("serial", "cs-serial")
        pool_out, pool_counters = leg("pool", "cs-pool", jobs=2)
        backend = _dispatch_backend(tmp_path)
        try:
            disp_out, disp_counters = leg(backend, "cs-dispatch")
        finally:
            backend.close()

        assert serial_out == pool_out == disp_out == expected
        for counters in (serial_counters, pool_counters, disp_counters):
            assert counters["executor.retries"] == 1
            assert "executor.task_failures" not in counters

    def test_timeout_then_success_parity_pool_vs_dispatch(self, tmp_path):
        """S3: attempt 1 of task 1 hangs past the wall-clock budget,
        attempt 2 succeeds.  The pool and dispatch backends must produce
        the result envelope of an undisturbed serial run and identical
        retry/timeout counters.  (The serial backend cannot preempt a
        running task and documents that it ignores ``timeout``, so it
        has no timeout leg to compare.)"""
        tasks = make_tasks(range(4), root_seed=5)
        expected = map_tasks(_draw, tasks, executor="serial", stage="clean")

        def leg(executor, state_dir, **kwargs):
            _use_chaos(
                ChaosPlan(
                    state_dir=str(tmp_path / state_dir),
                    faults=(
                        Fault(kind="hang", stage="hung", index=1, hang_seconds=30.0),
                    ),
                )
            )
            registry = obs_metrics.MetricsRegistry()
            obs_metrics.install(registry)
            try:
                out = map_tasks(
                    _draw, tasks, executor=executor, stage="hung",
                    on_error="retry", retry=FAST_RETRY, timeout=0.75, **kwargs,
                )
            finally:
                obs_metrics.install(None)
                _use_chaos(None)
            return out, registry.counters

        pool_out, pool_counters = leg("pool", "cs-pool", jobs=2)
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=2, lease_timeout=10.0, poll=0.02
        )
        try:
            disp_out, disp_counters = leg(backend, "cs-dispatch")
        finally:
            backend.close()

        assert pool_out == disp_out == expected
        for counters in (pool_counters, disp_counters):
            assert counters["executor.retries"] == 1
            assert counters["executor.events.timeout"] == 1
            assert "executor.task_failures" not in counters


class TestForkedWorkersShedParentState:
    def test_profiler_hook_not_inherited_by_workers(self, tmp_path):
        """Workers forked inside a ``--profile`` stage must not run their
        tasks under the stage's cProfile hook, and the stage's own dump
        is still written."""
        tasks = make_tasks(range(6))
        backend = _dispatch_backend(tmp_path)
        obs_profile.install_profile_dir(tmp_path)
        try:
            with obs_profile.maybe_profile("probe"):
                assert sys.getprofile() is not None
                pooled = map_tasks(_profiled, tasks, jobs=2, executor="pool")
                dispatched = map_tasks(_profiled, tasks, executor=backend)
        finally:
            backend.close()
            obs_profile.install_profile_dir(None)
        assert pooled == [False] * 6
        assert dispatched == [False] * 6
        assert (tmp_path / "profile-run-probe.pstats").is_file()
