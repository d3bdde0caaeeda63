"""Poison-task quarantine: a task that kills its worker on every attempt
must stop being re-issued after ``quarantine_after`` fatal attempts and
settle as ``TaskFailure(kind="quarantined")`` — on the pool backend's
rebuild loop and on the dispatch backend's re-issue loop — while the
rest of the sweep completes with correct bytes.  Both backends share one
task lifecycle, so they must agree on the record and the counters under
every ``on_error`` mode.
"""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.engine.backends import DispatchBackend, RunState
from repro.engine.backends.lifecycle import StageRun
from repro.engine.chaos import ChaosPlan, Fault
from repro.engine.executor import Task, make_tasks, map_tasks
from repro.engine.faults import (
    ExecutionPolicy,
    RetryPolicy,
    completed,
    is_failure,
)
from repro.engine.journal import RunJournal
from repro.obs import Telemetry
from repro.obs import metrics as obs_metrics
from repro.run_context import current_run, install_run


def _use_chaos(plan) -> None:
    """Put ``plan`` in the run context for the rest of the test."""
    install_run(replace(current_run(), chaos=plan))


FAST_RETRY = RetryPolicy(max_attempts=6, base_delay=0.001, max_delay=0.01)


@pytest.fixture(autouse=True)
def _clean_metrics():
    yield
    obs.install(None)


def _install_persistent_kill(tmp_path, stage: str, index: int) -> ChaosPlan:
    """A task that dies hard on EVERY attempt (once=False) — the poison
    shape quarantine exists for."""
    plan = ChaosPlan(
        state_dir=str(tmp_path / "chaos-state"),
        faults=(Fault(kind="worker-lost", stage=stage, index=index, once=False),),
    )
    _use_chaos(plan)
    return plan


def _double(task: Task) -> int:
    return task.payload * 2


class TestPolicyKnob:
    def test_policy_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            ExecutionPolicy(quarantine_after=0)

    def test_map_tasks_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            map_tasks(_double, make_tasks([1]), quarantine_after=0)

    def test_cli_flag_feeds_policy(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "E1", "--quarantine-after", "7"])
        assert args.quarantine_after == 7


class TestPoolQuarantine:
    def test_persistent_killer_quarantined_sweep_completes(self, tmp_path):
        _install_persistent_kill(tmp_path, "pq", 2)
        with pytest.warns(UserWarning, match="quarantine"):
            out = map_tasks(
                _double, make_tasks(range(5)), jobs=2, executor="pool",
                stage="pq", on_error="retry", retry=FAST_RETRY,
                quarantine_after=2,
            )
        assert [is_failure(r) for r in out] == [False, False, True, False, False]
        assert out[2].kind == "quarantined"
        assert out[2].attempts >= 2
        assert completed(out) == [0, 2, 6, 8]

    def test_crash_counts_persist_for_resume(self, tmp_path):
        """A second incarnation of the run pre-quarantines the poison
        task from the journal's crash counts instead of re-proving it."""
        _install_persistent_kill(tmp_path, "persist", 1)
        journal = RunJournal.create(tmp_path / "runs", "r1", {})
        with pytest.warns(UserWarning, match="quarantine"):
            map_tasks(
                _double, make_tasks(range(3)), jobs=2, executor="pool",
                stage="persist", on_error="retry", retry=FAST_RETRY,
                journal=journal, quarantine_after=2,
            )
        assert journal.crash_counts("persist")[1] >= 2

        _use_chaos(None)  # even with chaos gone, the record stands
        resumed = RunJournal.open(tmp_path / "runs", "r1")
        with pytest.warns(UserWarning, match="quarantine"):
            out = map_tasks(
                _double, make_tasks(range(3)), jobs=2, executor="pool",
                stage="persist", on_error="retry", retry=FAST_RETRY,
                journal=resumed, quarantine_after=2,
            )
        assert is_failure(out[1]) and out[1].kind == "quarantined"
        assert completed(out) == [0, 4]

    def test_losses_recorded_elsewhere_count(self, tmp_path):
        """A loss another process journaled after this stage read the
        crash counts still counts toward quarantine."""
        journal = RunJournal.create(tmp_path / "runs", "r2", {})
        state = RunState(
            _double, "shared", None, "skip", RetryPolicy(), None, journal, None,
            quarantine_after=2,
        )
        results: "dict[int, object]" = {}
        run = StageRun(state, make_tasks(range(2)), results)
        journal.record_crash("shared", 1)  # another dispatcher's loss
        with pytest.warns(UserWarning, match="quarantine"):
            run.lost(1, run.issue(1))
        assert run.losses[1] == 2 and 1 not in run.due
        assert journal.crash_counts("shared")[1] == 2

    def test_transient_death_still_recovers(self, tmp_path):
        """A once-only death stays below the quarantine budget and the
        task completes on the rebuilt pool — no behaviour change."""
        plan = ChaosPlan(
            state_dir=str(tmp_path / "chaos-state"),
            faults=(Fault(kind="worker-lost", stage="tq", index=1),),
        )
        _use_chaos(plan)
        with pytest.warns(UserWarning, match="pool-broken"):
            out = map_tasks(
                _double, make_tasks(range(4)), jobs=2, executor="pool",
                stage="tq", on_error="retry", retry=FAST_RETRY,
                quarantine_after=3,
            )
        assert out == [0, 2, 4, 6]


class TestDispatchQuarantine:
    def test_persistent_killer_quarantined_sweep_completes(self, tmp_path):
        _install_persistent_kill(tmp_path, "dq", 1)
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=2, poll=0.02
        )
        journal = RunJournal.create(tmp_path / "journals", "dq1", {})
        try:
            with pytest.warns(UserWarning, match="quarantine"):
                out = map_tasks(
                    _double, make_tasks(range(4)), executor=backend,
                    stage="dq", on_error="retry", retry=FAST_RETRY,
                    journal=journal, quarantine_after=2,
                )
        finally:
            backend.close()
        assert [is_failure(r) for r in out] == [False, True, False, False]
        assert out[1].kind == "quarantined"
        assert completed(out) == [0, 4, 6]
        # ... and the failure is on disk for the post-mortem.
        lines = [
            json.loads(line)
            for line in (tmp_path / "journals" / "dq1" / "failures.jsonl")
            .read_text()
            .splitlines()
        ]
        assert any(d["kind"] == "quarantined" and d["index"] == 1 for d in lines)
        assert journal.crash_counts("dq")[1] >= 2

    def test_quarantine_raises_under_raise_mode(self, tmp_path):
        _install_persistent_kill(tmp_path, "dr", 0)
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=2, poll=0.02
        )
        try:
            with pytest.warns(UserWarning, match="worker-lost"):
                with pytest.raises(RuntimeError, match="quarantined"):
                    map_tasks(
                        _double, make_tasks(range(2)), executor=backend,
                        stage="dr", on_error="raise", quarantine_after=2,
                    )
        finally:
            backend.close()


def _poison_run(tmp_path, executor: str, on_error: str, stage: str, poison: int = 4):
    """Five tasks, task ``poison`` kills its worker on every attempt, K = 2.

    When the poison task comes first in claim order, both dispatch
    workers can die before any other task is claimed; the dispatcher
    restarts lost local workers, so the run still completes."""
    _install_persistent_kill(tmp_path, stage, poison)
    backend = (
        DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        if executor == "dispatch" else executor
    )
    registry = obs_metrics.MetricsRegistry()
    obs.install(Telemetry(metrics=registry))
    try:
        out = map_tasks(
            _double, make_tasks(range(5)), jobs=2, executor=backend, stage=stage,
            on_error=on_error, retry=FAST_RETRY, quarantine_after=2,
        )
    finally:
        obs.install(None)
        if executor == "dispatch":
            backend.close()
    return out, registry.counters


def _assert_parity(tmp_path, executor: str, on_error: str, poison: int) -> None:
    with pytest.warns(UserWarning, match="quarantine"):
        out, counters = _poison_run(tmp_path, executor, on_error, "par", poison)
    assert [is_failure(r) for r in out] == [i == poison for i in range(5)]
    assert (out[poison].kind, out[poison].error_type, out[poison].attempts) == (
        "quarantined", "WorkerLost", 2,
    )
    assert completed(out) == [2 * i for i in range(5) if i != poison]
    assert counters["executor.worker_losses"] == 2
    assert counters["quarantine.tasks"] == 1
    assert counters["executor.task_failures"] == 1
    assert "executor.retries" not in counters


class TestQuarantineParity:
    """One rule on every backend: a worker loss never uses up a retry
    attempt; the K-th loss quarantines under skip and retry alike,
    wherever the poison task sits in claim order."""

    @pytest.mark.parametrize("on_error", ["skip", "retry"])
    @pytest.mark.parametrize("executor", ["pool", "dispatch"])
    def test_same_record_and_counters(self, tmp_path, executor, on_error):
        _assert_parity(tmp_path, executor, on_error, poison=4)

    @pytest.mark.parametrize("on_error", ["skip", "retry"])
    @pytest.mark.parametrize("executor", ["pool", "dispatch"])
    def test_same_record_and_counters_poison_first(self, tmp_path, executor, on_error):
        _assert_parity(tmp_path, executor, on_error, poison=0)

    def test_pool_raise_mode_refuses_after_k_losses(self, tmp_path):
        with pytest.warns(UserWarning, match="pool-broken"):
            with pytest.raises(RuntimeError, match="killed 2 worker"):
                _poison_run(tmp_path, "pool", "raise", "praise")
