"""Tests for the deterministic task executor."""

import numpy as np
import pytest

from repro.engine.executor import (
    JOBS_CAP,
    StageTimer,
    Task,
    get_worker_context,
    make_tasks,
    map_tasks,
    resolve_jobs,
)


def _draw(task: Task) -> float:
    """Pickleable task function: one uniform from the task's seed."""
    return float(np.random.default_rng(task.seed).random())


def _payload_square(task: Task) -> int:
    return task.payload**2


def _context_scaled(task: Task) -> int:
    """Pickleable task function reading the per-worker shared context."""
    ctx = get_worker_context()
    return ctx["factor"] * task.payload


class TestMakeTasks:
    def test_indices_and_payloads(self):
        tasks = make_tasks(["a", "b", "c"])
        assert [t.index for t in tasks] == [0, 1, 2]
        assert [t.payload for t in tasks] == ["a", "b", "c"]
        assert all(t.seed is None for t in tasks)

    def test_seeds_are_deterministic_and_distinct(self):
        one = make_tasks(range(4), root_seed=7, name="x")
        two = make_tasks(range(4), root_seed=7, name="x")
        draws_one = [_draw(t) for t in one]
        draws_two = [_draw(t) for t in two]
        assert draws_one == draws_two
        assert len(set(draws_one)) == 4

    def test_seeds_depend_on_name_and_root(self):
        base = [_draw(t) for t in make_tasks(range(3), root_seed=7, name="x")]
        other_name = [_draw(t) for t in make_tasks(range(3), root_seed=7, name="y")]
        other_root = [_draw(t) for t in make_tasks(range(3), root_seed=8, name="x")]
        assert base != other_name
        assert base != other_root


class TestMapTasks:
    def test_serial_preserves_order(self):
        tasks = make_tasks([3, 1, 2])
        assert map_tasks(_payload_square, tasks, jobs=1) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        tasks = make_tasks(range(5), root_seed=11)
        serial = map_tasks(_draw, tasks, jobs=1)
        parallel = map_tasks(_draw, tasks, jobs=3)
        assert serial == parallel

    def test_worker_exception_propagates(self):
        def boom(task: Task):
            raise ValueError("bad task %d" % task.index)

        with pytest.raises(ValueError, match="bad task"):
            map_tasks(boom, make_tasks(range(2)), jobs=1)

    def test_empty_tasks(self):
        assert map_tasks(_payload_square, [], jobs=4) == []

    @pytest.mark.parametrize("timeout", [0, -1, -0.5])
    def test_nonpositive_timeout_rejected(self, timeout):
        # Same message as ExecutionPolicy: a non-positive budget would
        # time out every task of a process backend.
        with pytest.raises(ValueError, match="timeout must be positive"):
            map_tasks(
                _payload_square, make_tasks([1, 2]), jobs=2, executor="pool",
                timeout=timeout,
            )


class TestWorkerContext:
    def test_serial_sees_context(self):
        tasks = make_tasks([1, 2, 3])
        out = map_tasks(_context_scaled, tasks, jobs=1, context={"factor": 10})
        assert out == [10, 20, 30]

    def test_pool_ships_context_once_per_worker(self):
        tasks = make_tasks([1, 2, 3, 4])
        out = map_tasks(_context_scaled, tasks, jobs=2, context={"factor": 5})
        assert out == [5, 10, 15, 20]

    def test_serial_and_pool_agree(self):
        tasks = make_tasks(range(6))
        ctx = {"factor": 3}
        serial = map_tasks(_context_scaled, tasks, jobs=1, context=ctx)
        pooled = map_tasks(_context_scaled, tasks, jobs=3, context=ctx)
        assert serial == pooled

    def test_context_cleared_after_serial_run(self):
        map_tasks(_context_scaled, make_tasks([1]), jobs=1, context={"factor": 2})
        assert get_worker_context() is None

    def test_no_context_reads_none(self):
        def probe(task: Task):
            return get_worker_context()

        assert map_tasks(probe, make_tasks([0]), jobs=1) == [None]


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(8) == 8

    def test_all_cores(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_absurd_values_hit_the_sanity_cap(self):
        # Regression: a fat-fingered --jobs 10000 must be a clear error,
        # not a fork bomb.
        assert resolve_jobs(JOBS_CAP) == JOBS_CAP
        with pytest.raises(ValueError, match="sanity cap"):
            resolve_jobs(JOBS_CAP + 1)
        with pytest.raises(ValueError, match="sanity cap"):
            resolve_jobs(10_000_000)


class TestStageTimer:
    def test_accumulates_named_stages(self):
        timer = StageTimer()
        with timer.stage("a"):
            pass
        with timer.stage("a"):
            pass
        with timer.stage("b"):
            pass
        assert set(timer.timings) == {"a", "b"}
        assert all(v >= 0.0 for v in timer.timings.values())
