"""The layer's hard invariants, exercised through the real executor:

* metric totals are identical for every ``--jobs`` value (task buffers
  merge in task-settle order, which is task order);
* chaos-injected retries increment the retry counters without changing
  a single result value.
"""

import json
from dataclasses import replace

import pytest

from repro.engine.chaos import ChaosPlan, Fault
from repro.engine.executor import Task, make_tasks, map_tasks
from repro.engine.faults import RetryPolicy
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.run_context import current_run, install_run


def _use_chaos(plan) -> None:
    """Put ``plan`` in the run context for the rest of the test."""
    install_run(replace(current_run(), chaos=plan))


FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


def _instrumented_task(task: Task) -> int:
    """Pickleable task that reports into the ambient metrics API."""
    obs_metrics.add("demo.calls")
    obs_metrics.add("demo.work", task.payload)
    obs_metrics.observe("demo.size", float(task.payload))
    return task.payload * 3


def _run_with_registry(jobs: int) -> "tuple[list, dict]":
    reg = MetricsRegistry()
    obs_metrics.install(reg)
    try:
        with obs_metrics.prefix_scope("EX"):
            out = map_tasks(
                _instrumented_task, make_tasks(range(9)), jobs=jobs, stage="sweep"
            )
    finally:
        obs_metrics.install(None)
    return out, reg.grouped_counters()


class TestJobsDeterminism:
    @pytest.mark.parametrize("jobs", [4, 8])
    def test_counters_identical_across_worker_counts(self, jobs):
        serial_out, serial_counters = _run_with_registry(1)
        pool_out, pool_counters = _run_with_registry(jobs)
        assert pool_out == serial_out
        # Counters (including the json rendering) must match exactly;
        # only wall-clock histograms may differ between runs.
        assert pool_counters == serial_counters
        assert json.dumps(pool_counters, sort_keys=True) == json.dumps(
            serial_counters, sort_keys=True
        )

    def test_expected_totals(self):
        _, counters = _run_with_registry(1)
        assert counters["EX"]["demo.calls"] == 9
        assert counters["EX"]["demo.work"] == sum(range(9))
        assert counters["EX"]["executor.tasks"] == 9
        assert counters["EX"]["executor.tasks_executed"] == 9
        # No failures on a clean run → no retry/failure counters at all,
        # which is what keeps the jobs-comparison above exact.
        assert "executor.retries" not in counters["EX"]
        assert "executor.task_failures" not in counters["EX"]

    def test_trace_only_runs_still_return_plain_results(self, tmp_path):
        # With a tracer but no metrics sink the executor still envelopes
        # results (for task spans); callers must see unwrapped values.
        from repro.obs import trace as obs_trace
        from repro.obs.trace import TraceWriter

        writer = TraceWriter(tmp_path / "trace.jsonl")
        obs_trace.install_tracer(writer)
        try:
            out = map_tasks(_instrumented_task, make_tasks(range(4)), jobs=1)
        finally:
            obs_trace.install_tracer(None)
            writer.close()
        assert out == [0, 3, 6, 9]
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert sum(1 for d in docs if d["kind"] == "task") == 4


class TestDispatchChunkDeterminism:
    """Metrics merged from chunked dispatch work units must equal the
    serial totals — chunking batches *claims*, never settle order."""

    TASK_COUNTERS = (
        "demo.calls", "demo.work", "executor.tasks", "executor.tasks_executed",
    )

    def _task_counters(self, counters: dict) -> dict:
        # Infrastructure counters (queues, leases) legitimately depend
        # on the backend; the determinism contract covers everything a
        # task function reports plus the executor's task totals.
        return {
            name: counters["EX"][name]
            for name in self.TASK_COUNTERS
            if name in counters.get("EX", {})
        }

    @pytest.mark.parametrize("chunk", [2, 4])
    def test_chunked_dispatch_counters_match_serial(self, tmp_path, chunk):
        from repro.engine.backends import DispatchBackend

        serial_out, serial_counters = _run_with_registry(1)

        backend = DispatchBackend(
            tmp_path / "root", local_workers=2, lease_timeout=10.0,
            poll=0.01, chunk=chunk,
        )
        reg = MetricsRegistry()
        obs_metrics.install(reg)
        try:
            with obs_metrics.prefix_scope("EX"):
                out = map_tasks(
                    _instrumented_task, make_tasks(range(9)),
                    executor=backend, stage="sweep",
                )
        finally:
            obs_metrics.install(None)
            backend.close()
        assert out == serial_out
        chunked = reg.grouped_counters()
        assert self._task_counters(chunked) == self._task_counters(serial_counters)
        # Histogram counts (one task_seconds sample per task) also match.
        hists = reg.to_dict()["histograms"]
        assert hists["EX"]["executor.task_seconds"]["count"] == 9


class TestChaosRetryCounters:

    def test_injected_retry_counts_without_perturbing_results(self, tmp_path):
        baseline = map_tasks(_instrumented_task, make_tasks(range(6)), stage="sweep")

        plan = ChaosPlan(
            state_dir=str(tmp_path / "chaos-state"),
            faults=(Fault(kind="raise", stage="sweep", index=2),),
        )
        _use_chaos(plan)
        reg = MetricsRegistry()
        obs_metrics.install(reg)
        try:
            out = map_tasks(
                _instrumented_task,
                make_tasks(range(6)),
                stage="sweep",
                on_error="retry",
                retry=FAST_RETRY,
            )
        finally:
            obs_metrics.install(None)

        assert out == baseline  # retry healed the fault; values untouched
        counters = reg.grouped_counters()["run"]
        assert counters["executor.retries"] >= 1
        assert counters["executor.tasks_executed"] == 6
        # The failed attempt's buffer is dropped: only the 6 successful
        # executions ship metrics, so demo.calls stays jobs-invariant.
        assert counters["demo.calls"] == 6
