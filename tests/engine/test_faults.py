"""Fault-injection tests: retry, skip, timeout, crash recovery, journal
resume, and the numerical-guard layer.

Each test installs a deterministic :class:`~repro.engine.chaos.ChaosPlan`
(or none) and asserts the engine's recovery path produces the same
numbers an undisturbed run would — the core promise of the
fault-tolerance layer.
"""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.sinr import SINRInstance
from repro.engine import chaos, guards
from repro.engine.backends import DispatchBackend
from repro.engine.backends import RunState
from repro.engine.backends import pool as pool_backend
from repro.engine.backends.lifecycle import StageRun
from repro.engine.chaos import ChaosError, ChaosPlan, Fault
from repro.engine.executor import Task, get_worker_context, make_tasks, map_tasks
from repro.engine.faults import (
    ExecutionPolicy,
    RetryPolicy,
    RunReport,
    TaskFailure,
    completed,
    execution_scope,
    is_failure,
    usable_results,
)
from repro.engine.journal import JournalError, RunJournal
from repro.fading.success import Theorem1Kernel
from repro.run_context import current_run, install_run, run_scope


def _use_chaos(plan) -> None:
    """Put ``plan`` in the run context for the rest of the test."""
    install_run(replace(current_run(), chaos=plan))


FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)



def _install(tmp_path, *faults) -> ChaosPlan:
    plan = ChaosPlan(state_dir=str(tmp_path / "chaos-state"), faults=tuple(faults))
    _use_chaos(plan)
    return plan


def _double(task: Task) -> int:
    return task.payload * 2


def _negative_boom(task: Task) -> int:
    if task.payload < 0:
        raise ValueError(f"payload {task.payload} rejected")
    return task.payload * 2


def _journaled_double(task: Task) -> int:
    """Doubles the payload and logs each execution to the context dir,
    so tests can count how many tasks actually (re-)ran."""
    log_dir = Path(get_worker_context())
    with open(log_dir / "executions.log", "a", encoding="utf-8") as fh:
        fh.write(f"{task.index}\n")
    return task.payload * 2


def _unwritable_marker(marker_dir: str, index: int) -> str:
    return str(Path(marker_dir) / "no-such-dir" / f"inflight-{index}")


def _executions(log_dir) -> "list[int]":
    path = Path(log_dir) / "executions.log"
    if not path.exists():
        return []
    return [int(line) for line in path.read_text().splitlines()]


class TestOnErrorModes:
    def test_raise_is_default_and_propagates(self):
        with pytest.raises(ValueError, match="payload -1 rejected"):
            map_tasks(_negative_boom, make_tasks([1, -1, 3]))

    def test_skip_records_structured_failure(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = map_tasks(_negative_boom, make_tasks([1, -1, 3]), on_error="skip")
        assert out[0] == 2 and out[2] == 6
        failure = out[1]
        assert is_failure(failure)
        assert failure.index == 1
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert "payload -1 rejected" in failure.message
        assert completed(out) == [2, 6]
        assert usable_results(out, "test sweep") == [2, 6]

    def test_usable_results_raises_when_all_slots_failed(self):
        fails = [
            TaskFailure(i, "s", "error", "ValueError", "boom", 1) for i in range(3)
        ]
        with pytest.raises(RuntimeError, match="all 3 task"):
            usable_results(fails, "the doomed sweep")

    def test_retry_recovers_from_transient_fault(self, tmp_path):
        # A once-only injected crash: attempt 1 of task 1 raises, the
        # retry runs clean — the sweep completes with full results.
        _install(tmp_path, Fault(kind="raise", stage="sweep", index=1))
        out = map_tasks(
            _double, make_tasks([5, 6, 7]), on_error="retry", retry=FAST_RETRY
        )
        assert out == [10, 12, 14]

    def test_retry_exhausts_into_failure(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = map_tasks(
                _negative_boom,
                make_tasks([-1, 4]),
                on_error="retry",
                retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            )
        assert is_failure(out[0])
        assert out[0].attempts == 2
        assert out[1] == 8

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            map_tasks(_double, make_tasks([1]), on_error="explode")


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        p = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0, jitter=0.5)
        assert p.delay(3, 2) == p.delay(3, 2)
        assert p.delay(3, 2) != p.delay(4, 2)  # de-synchronised across tasks

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(max_attempts=9, base_delay=0.1, max_delay=0.4, jitter=0.0)
        delays = [p.delay(0, k) for k in range(1, 6)]
        assert delays == sorted(delays)
        assert delays[-1] <= 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestAmbientPolicy:
    def test_execution_scope_supplies_knobs(self):
        report = RunReport()
        policy = ExecutionPolicy(on_error="skip", report=report)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with execution_scope(policy):
                out = map_tasks(_negative_boom, make_tasks([1, -2]))
        assert out[0] == 2 and is_failure(out[1])
        assert report.incomplete
        assert report.failures[0].index == 1
        assert report.to_dict()["failures"][0]["error_type"] == "ValueError"

    def test_explicit_knob_overrides_scope(self):
        with execution_scope(ExecutionPolicy(on_error="skip")):
            with pytest.raises(ValueError):
                map_tasks(_negative_boom, make_tasks([-1]), on_error="raise")


class TestPoolFaults:
    def test_hung_task_times_out_and_pool_recovers(self, tmp_path):
        _install(
            tmp_path,
            Fault(kind="hang", stage="sweep", index=1, hang_seconds=30.0),
        )
        report = RunReport()
        policy = ExecutionPolicy(on_error="skip", timeout=1.5, report=report)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with execution_scope(policy):
                out = map_tasks(_double, make_tasks([1, 2, 3, 4]), jobs=2)
        assert [out[0], out[2], out[3]] == [2, 6, 8]
        assert is_failure(out[1]) and out[1].kind == "timeout"
        assert any(e["kind"] == "timeout" for e in report.events)

    def test_worker_death_retry_rebuilds_pool(self, tmp_path):
        _install(tmp_path, Fault(kind="exit", stage="sweep", index=2))
        report = RunReport()
        policy = ExecutionPolicy(on_error="retry", retry=FAST_RETRY, report=report)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with execution_scope(policy):
                out = map_tasks(_double, make_tasks([1, 2, 3, 4]), jobs=2)
        assert out == [2, 4, 6, 8]  # nothing lost despite the dead worker
        assert any(e["kind"] == "pool-broken" for e in report.events)

    def test_hung_tasks_each_charged_one_attempt(self, tmp_path):
        # Two tasks hang on every attempt.  Tearing the pool down for the
        # first re-issues the second at no cost, so under skip each
        # failure records exactly the one execution it was allowed.
        _install(
            tmp_path,
            Fault(kind="hang", stage="sweep", index=1, hang_seconds=30.0, once=False),
            Fault(kind="hang", stage="sweep", index=2, hang_seconds=30.0, once=False),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = map_tasks(
                _double, make_tasks([1, 2, 3, 4]), jobs=2, executor="pool",
                on_error="skip", timeout=0.5,
            )
        assert [out[0], out[3]] == [2, 8]
        for failure in (out[1], out[2]):
            assert is_failure(failure) and failure.kind == "timeout"
            assert failure.attempts == 1

    def test_futures_timeout_detected_on_python_3_10(self, monkeypatch):
        # Before Python 3.11 a future's timeout raises
        # concurrent.futures.TimeoutError, which is not the builtin.
        class FuturesTimeout(Exception):
            pass

        class HungFuture:
            def result(self, timeout=None):
                raise FuturesTimeout()

            def done(self):
                return False

        monkeypatch.setattr(pool_backend, "_FuturesTimeout", FuturesTimeout)
        state = RunState(_double, "sweep", None, "skip", RetryPolicy(), 0.5, None, None)
        results: "dict[int, object]" = {}
        run = StageRun(state, make_tasks([1]), results)
        inflight = {0: (run.issue(0), HungFuture())}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            abort = pool_backend.ProcessPoolBackend._collect(run, inflight)
        assert abort == "timeout"
        assert results[0].kind == "timeout" and results[0].attempts == 1

    def test_worker_death_skip_degrades_to_serial(self, tmp_path, monkeypatch):
        # A persistent killer fault whose in-flight marker cannot be
        # written (a full disk): no task can be blamed for the break, so
        # the engine runs the rest of the stage in this process, where
        # the injected death is downgraded to an exception and skipped.
        monkeypatch.setattr(pool_backend, "_marker_path", _unwritable_marker)
        _install(tmp_path, Fault(kind="exit", stage="sweep", index=1, once=False))
        report = RunReport()
        policy = ExecutionPolicy(on_error="skip", report=report)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with execution_scope(policy):
                out = map_tasks(_double, make_tasks([1, 2, 3, 4]), jobs=2)
        assert [out[0], out[2], out[3]] == [2, 6, 8]
        assert is_failure(out[1]) and out[1].error_type == "ChaosError"
        kinds = [e["kind"] for e in report.events]
        assert "pool-broken" in kinds and "degraded-serial" in kinds


class TestJournal:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path):
        tasks = make_tasks([3, 1, 4, 1, 5, 9])
        (tmp_path / "c").mkdir()
        clean = map_tasks(_journaled_double, tasks, context=str(tmp_path / "c"))

        # First attempt: tasks 3 and 4 keep crashing (persistent fault),
        # the rest land in the journal.
        _install(
            tmp_path,
            Fault(kind="raise", stage="sweep", index=3, once=False),
            Fault(kind="raise", stage="sweep", index=4, once=False),
        )
        journal = RunJournal.create(tmp_path / "runs", "r1", {"who": "test"})
        log1 = tmp_path / "log1"
        log1.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            first = map_tasks(
                _journaled_double,
                tasks,
                context=str(log1),
                on_error="skip",
                journal=journal,
            )
        assert is_failure(first[3]) and is_failure(first[4])
        _use_chaos(None)

        # Resume: only the two missing tasks execute; the aggregate is
        # bit-identical to the uninterrupted run.
        resumed_journal = RunJournal.open(tmp_path / "runs", "r1")
        log2 = tmp_path / "log2"
        log2.mkdir()
        second = map_tasks(
            _journaled_double, tasks, context=str(log2), journal=resumed_journal
        )
        assert second == clean
        assert sorted(_executions(log2)) == [3, 4]

    def test_full_journal_replays_with_zero_executions(self, tmp_path):
        tasks = make_tasks([2, 7, 1])
        journal = RunJournal.create(tmp_path / "runs", "full", {})
        log1 = tmp_path / "log1"
        log1.mkdir()
        first = map_tasks(
            _journaled_double, tasks, context=str(log1), journal=journal
        )
        replay_journal = RunJournal.open(tmp_path / "runs", "full")
        log2 = tmp_path / "log2"
        log2.mkdir()
        replay = map_tasks(
            _journaled_double, tasks, context=str(log2), journal=replay_journal
        )
        assert replay == first
        assert _executions(log2) == []

    def test_corrupt_record_is_skipped_and_rerun(self, tmp_path):
        tasks = make_tasks([2, 7, 1])
        journal = RunJournal.create(tmp_path / "runs", "c", {})
        log1 = tmp_path / "log1"
        log1.mkdir()
        first = map_tasks(
            _journaled_double, tasks, context=str(log1), journal=journal
        )
        # Tear one record mid-write.
        record = next((tmp_path / "runs" / "c").glob("stages/*/task-000001.json"))
        record.write_text(record.read_text()[: len(record.read_text()) // 2])

        reopened = RunJournal.open(tmp_path / "runs", "c")
        log2 = tmp_path / "log2"
        log2.mkdir()
        with pytest.warns(UserWarning, match="corrupt"):
            again = map_tasks(
                _journaled_double, tasks, context=str(log2), journal=reopened
            )
        assert again == first
        assert _executions(log2) == [1]  # only the torn record re-ran

    def test_checksum_mismatch_detected(self, tmp_path):
        journal = RunJournal.create(tmp_path / "runs", "sum", {})
        journal.record("sweep", 0, {"x": 1})
        record = next((tmp_path / "runs" / "sum").glob("stages/*/task-000000.json"))
        doc = json.loads(record.read_text())
        doc["sha256"] = "0" * 64
        record.write_text(json.dumps(doc))
        reopened = RunJournal.open(tmp_path / "runs", "sum")
        with pytest.warns(UserWarning, match="checksum"):
            assert reopened.load_stage("sweep", 1) == {}

    def test_mismatched_config_rejected(self, tmp_path):
        journal = RunJournal.create(tmp_path / "runs", "m", {})
        tasks = make_tasks(range(6))
        map_tasks(_double, tasks, journal=journal)
        reopened = RunJournal.open(tmp_path / "runs", "m")
        with pytest.raises(JournalError, match="different config"):
            map_tasks(_double, make_tasks(range(3)), journal=reopened)

    def test_duplicate_stage_name_rejected(self, tmp_path):
        journal = RunJournal.create(tmp_path / "runs", "d", {})
        map_tasks(_double, make_tasks([1]), journal=journal, stage="s")
        with pytest.raises(JournalError, match="distinct stage name"):
            map_tasks(_double, make_tasks([1]), journal=journal, stage="s")

    def test_create_refuses_existing_run_id(self, tmp_path):
        RunJournal.create(tmp_path / "runs", "dup", {})
        with pytest.raises(JournalError, match="--resume dup"):
            RunJournal.create(tmp_path / "runs", "dup", {})

    def test_open_missing_run_lists_known_ids(self, tmp_path):
        RunJournal.create(tmp_path / "runs", "alpha", {})
        with pytest.raises(JournalError, match="alpha"):
            RunJournal.open(tmp_path / "runs", "nope")


def _fresh_instance(n: int = 4) -> SINRInstance:
    gains = np.full((n, n), 0.3)
    np.fill_diagonal(gains, 25.0)
    return SINRInstance(gains, noise=0.5)


class TestGuards:
    def test_off_by_default_lets_nan_through(self):
        arr = np.array([0.2, np.nan, 0.7])
        assert current_run().guards == "off"
        assert guards.check_probabilities(arr, "site") is arr

    def test_strict_raises_with_link_indices(self):
        arr = np.array([0.2, np.nan, 0.7])
        with run_scope(guards="strict"):
            with pytest.raises(guards.GuardViolation, match=r"link\(s\) \[1\]"):
                guards.check_probabilities(arr, "mykernel", beta=2.0)

    def test_warn_mode_warns_and_passes_value(self):
        arr = np.array([[1.5, 0.5]])
        with run_scope(guards="warn"):
            with pytest.warns(guards.GuardWarning, match="mykernel"):
                out = guards.check_probabilities(arr, "mykernel")
        assert out is arr

    def test_check_finite_allows_inf_when_asked(self):
        arr = np.array([1.0, np.inf])
        with run_scope(guards="strict"):
            assert guards.check_finite(arr, "sinr", allow_inf=True) is arr
            with pytest.raises(guards.GuardViolation):
                guards.check_finite(arr, "sinr")

    def test_theorem1_nan_injection_caught_strict(self, tmp_path):
        # Chaos poisons link 2 of the Theorem-1 output; strict guards
        # catch it at the kernel boundary, naming the link and the
        # kernel parameters.
        _install(
            tmp_path,
            Fault(kind="nan", site="theorem1.conditional", links=(2,), once=False),
        )
        kernel = Theorem1Kernel(_fresh_instance(), beta=1.0)
        q = np.full(4, 0.5)
        with run_scope(guards="strict"):
            with pytest.raises(guards.GuardViolation) as err:
                kernel.conditional(q)
        message = str(err.value)
        assert "theorem1.conditional" in message
        assert "[2]" in message
        assert "beta_min=1.0" in message and "noise=0.5" in message

    def test_theorem1_nan_injection_silent_when_off(self, tmp_path):
        _install(
            tmp_path,
            Fault(kind="nan", site="theorem1.conditional", links=(2,), once=False),
        )
        kernel = Theorem1Kernel(_fresh_instance(), beta=1.0)
        out = kernel.conditional(np.full(4, 0.5))
        assert np.isnan(out[2])  # corruption happened, guards were off

    def test_guard_checks_never_mutate_clean_values(self):
        kernel = Theorem1Kernel(_fresh_instance(), beta=1.0)
        q = np.full(4, 0.5)
        baseline = kernel.conditional(q)
        with run_scope(guards="strict"):
            checked = Theorem1Kernel(_fresh_instance(), beta=1.0).conditional(q)
        np.testing.assert_array_equal(baseline, checked)


class TestChaosPlanRoundTrip:
    def test_plan_survives_json(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path),
            faults=(
                Fault(kind="raise", stage="sweep", index=3),
                Fault(kind="nan", site="k", links=(1, 2), once=False),
            ),
        )
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_plan_from_env(self, tmp_path, monkeypatch):
        plan = ChaosPlan(state_dir=str(tmp_path / "s"), faults=())
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan.to_dict()))
        monkeypatch.setenv(chaos.CHAOS_ENV, str(plan_file))
        assert chaos.plan_from_env() == plan
        monkeypatch.delenv(chaos.CHAOS_ENV)
        assert chaos.plan_from_env() is None

    def test_exit_fault_downgrades_in_main_process(self, tmp_path):
        _install(tmp_path, Fault(kind="exit", stage="s", index=0))
        with pytest.raises(ChaosError, match="downgraded"):
            chaos.on_task_start("s", 0)

    def test_bad_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            Fault(kind="meltdown")


def _networks_sweep(experiment: str, executor) -> list:
    """Three tasks of a stage named ``networks``, as E1's and E7's
    drivers both open one, inside ``experiment``'s driver scope."""
    with obs.experiment_scope(experiment):
        return map_tasks(
            _double, make_tasks([1, 2, 3]), jobs=2, stage="networks",
            on_error="skip", executor=executor,
        )


class TestFaultsNamingAnExperiment:
    """Drivers share stage names, so a fault may also name the experiment
    whose stage it strikes; the id travels with the stage to wherever
    the task runs."""

    def test_plan_with_experiment_survives_json(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path),
            faults=(Fault(kind="worker-lost", stage="networks", index=3, experiment="E7"),),
        )
        assert ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_matches_only_its_experiment(self):
        fault = Fault(kind="raise", stage="networks", experiment="E7")
        assert fault.matches_task("networks", 0, "E7")
        assert not fault.matches_task("networks", 0, "E1")
        assert not fault.matches_task("networks", 0, None)
        bare = Fault(kind="raise", stage="networks")
        assert bare.matches_task("networks", 0, "E1") and bare.matches_task("networks", 0)

    @pytest.mark.parametrize("executor", ["serial", "pool", "dispatch"])
    def test_fault_naming_e7_leaves_e1_networks_clean(self, tmp_path, executor):
        _install(tmp_path, Fault(kind="raise", stage="networks", index=1, experiment="E7"))
        backend = (
            DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
            if executor == "dispatch" else executor
        )
        try:
            e1 = _networks_sweep("E1", backend)
            with pytest.warns(UserWarning, match="injected crash in task 1"):
                e7 = _networks_sweep("E7", backend)
        finally:
            if executor == "dispatch":
                backend.close()
        assert e1 == [2, 4, 6]
        assert e7[0] == 2 and e7[2] == 6
        assert isinstance(e7[1], TaskFailure) and e7[1].stage == "networks"

    def test_bare_stage_fault_strikes_the_first_experiment_to_reach_it(self, tmp_path):
        _install(tmp_path, Fault(kind="raise", stage="networks", index=1))
        with pytest.warns(UserWarning, match="injected crash in task 1"):
            e1 = _networks_sweep("E1", "serial")
        assert isinstance(e1[1], TaskFailure)
        # Once-only: the marker E1 claimed leaves E7's task 1 clean.
        assert _networks_sweep("E7", "serial") == [2, 4, 6]

    def test_nan_fault_naming_an_experiment(self, tmp_path):
        _install(
            tmp_path,
            Fault(kind="nan", site="theorem1.conditional", links=(2,), once=False,
                  experiment="E7"),
        )
        kernel = Theorem1Kernel(_fresh_instance(), beta=1.0)
        q = np.full(4, 0.5)
        with obs.experiment_scope("E1"):
            assert not np.isnan(kernel.conditional(q)).any()
        with obs.experiment_scope("E7"):
            assert np.isnan(kernel.conditional(q)[2])
