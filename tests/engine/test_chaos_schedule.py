"""Randomized chaos schedules, plan-spec errors, and ENOSPC degradation.

The :class:`RandomSchedule` draws must be pure functions of
``(seed, stage, index)`` — the soak harness's byte-identity claim
silently becomes "usually identical" if a draw ever depends on process
state.  Plan-file typos must come back as one-line
:class:`ChaosSpecError` messages listing the valid vocabulary, and an
injected ENOSPC into any journal write must degrade the run (warn once,
count, continue) instead of failing it.
"""

import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.engine import chaos
from repro.engine.chaos import (
    FAULT_KINDS,
    FAULT_SITES,
    ChaosPlan,
    ChaosSpecError,
    Fault,
    RandomSchedule,
)
from repro.engine.executor import Task, make_tasks, map_tasks
from repro.engine.faults import RetryPolicy
from repro.engine.journal import RunJournal
from repro.obs import Telemetry
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.run_context import current_run, install_run


def _use_chaos(plan) -> None:
    """Put ``plan`` in the run context for the rest of the test."""
    install_run(replace(current_run(), chaos=plan))


def _double(task: Task) -> int:
    return task.payload * 2


class TestRandomSchedule:
    def test_draws_are_pure_functions_of_seed(self):
        a = RandomSchedule(seed=11, p_raise=0.3, p_hang=0.2, p_enospc=0.4)
        b = RandomSchedule(seed=11, p_raise=0.3, p_hang=0.2, p_enospc=0.4)
        draws_a = [(a.task_fault("s", i), a.write_fault("s", i)) for i in range(200)]
        draws_b = [(b.task_fault("s", i), b.write_fault("s", i)) for i in range(200)]
        assert draws_a == draws_b
        # A different seed gives a genuinely different schedule.
        c = RandomSchedule(seed=12, p_raise=0.3, p_hang=0.2, p_enospc=0.4)
        assert draws_a != [
            (c.task_fault("s", i), c.write_fault("s", i)) for i in range(200)
        ]

    def test_draws_survive_process_boundaries(self):
        """The string-seeded draw must not depend on PYTHONHASHSEED —
        dispatch workers are separate processes with their own hash
        randomization."""
        code = (
            "from repro.engine.chaos import RandomSchedule\n"
            "s = RandomSchedule(seed=11, p_raise=0.3, p_hang=0.2)\n"
            "print([s.task_fault('s', i) for i in range(50)])\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        runs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("0", "1", "424242")
        }
        assert len(runs) == 1

    def test_cumulative_kinds_and_rates(self):
        sched = RandomSchedule(
            seed=3, p_raise=0.25, p_hang=0.25, p_worker_lost=0.25, p_exit=0.25
        )
        kinds = [sched.task_fault("s", i) for i in range(400)]
        assert None not in kinds  # probabilities sum to 1
        for kind in ("raise", "hang", "worker-lost", "exit"):
            assert 40 < kinds.count(kind) < 160  # roughly a quarter each

    def test_stage_filter(self):
        sched = RandomSchedule(seed=3, p_raise=1.0, stage="only-this")
        assert sched.task_fault("other", 0) is None
        assert sched.task_fault("only-this", 0) == "raise"

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            RandomSchedule(seed=1, p_raise=-0.1)
        with pytest.raises(ValueError, match="must not exceed 1"):
            RandomSchedule(seed=1, p_raise=0.6, p_exit=0.6)
        with pytest.raises(ValueError, match="p_enospc"):
            RandomSchedule(seed=1, p_enospc=1.5)

    def test_round_trips_through_plan_dict(self):
        sched = RandomSchedule(seed=9, p_raise=0.1, p_enospc=0.2)
        plan = ChaosPlan(state_dir="/tmp/x", schedule=sched)
        assert ChaosPlan.from_dict(plan.to_dict()).schedule == sched

    def test_scheduled_faults_recoverable_under_retry(self, tmp_path):
        """Every schedule fault is once-only, so on_error=retry lands on
        clean-run results — the invariant the soak harness asserts at
        scale."""
        _use_chaos(ChaosPlan(
            state_dir=str(tmp_path / "state"),
            schedule=RandomSchedule(seed=5, p_raise=0.5),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = map_tasks(
                _double, make_tasks(range(12)), stage="sr", on_error="retry",
                retry=RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01),
            )
        assert out == [i * 2 for i in range(12)]


class TestSpecErrors:
    def _install(self, tmp_path, doc) -> ChaosSpecError:
        path = tmp_path / "plan.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(ChaosSpecError) as err:
            chaos.load_plan(path)
        return err.value

    def test_unknown_kind_lists_vocabulary(self, tmp_path):
        exc = self._install(
            tmp_path, {"state_dir": "x", "faults": [{"kind": "explode"}]}
        )
        for kind in FAULT_KINDS:
            assert kind in str(exc)
        for site in FAULT_SITES:
            assert site in str(exc)

    def test_unknown_field_named(self, tmp_path):
        exc = self._install(
            tmp_path,
            {"state_dir": "x", "faults": [{"kind": "raise", "stge": "s"}]},
        )
        assert "'stge'" in str(exc) and "valid fields" in str(exc)

    def test_bad_schedule_field(self, tmp_path):
        exc = self._install(
            tmp_path, {"state_dir": "x", "schedule": {"seed": 1, "p_rais": 0.5}}
        )
        assert "'p_rais'" in str(exc)

    def test_not_json(self, tmp_path):
        exc = self._install(tmp_path, "{not json")
        assert "not valid JSON" in str(exc)

    def test_missing_state_dir(self, tmp_path):
        exc = self._install(tmp_path, {"faults": []})
        assert "state_dir" in str(exc)

    def test_cli_surfaces_spec_error_as_exit_message(self, tmp_path, monkeypatch):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"state_dir": "x", "faults": [{"kind": "ka-boom"}]}))
        monkeypatch.setenv(chaos.CHAOS_ENV, str(path))
        with pytest.raises(SystemExit) as err:
            main(["run", "E11"])
        message = str(err.value)
        assert "ka-boom" in message and "journal.record" in message


class TestEnospcDegradation:
    def test_journal_record_enospc_degrades_with_warning(self, tmp_path):
        _use_chaos(ChaosPlan(
            state_dir=str(tmp_path / "state"),
            faults=(Fault(kind="enospc", site="journal.record", once=False),),
        ))
        journal = RunJournal.create(tmp_path / "runs", "r", {})
        with pytest.warns(UserWarning, match="no-space"):
            out = map_tasks(_double, make_tasks(range(4)), stage="e", journal=journal)
        assert out == [0, 2, 4, 6]  # results untouched by the full disk
        assert journal.degraded_writes == 4
        assert journal.health()["degraded_writes"] == 4
        # Nothing was checkpointed, so a resume re-runs everything...
        resumed = RunJournal.open(tmp_path / "runs", "r")
        assert resumed.load_stage("e", 4) == {}

    def test_degraded_writes_warn_once_and_emit_an_event_each(self, tmp_path):
        _use_chaos(ChaosPlan(
            state_dir=str(tmp_path / "state"),
            faults=(Fault(kind="enospc", site="journal.crashes", once=False),),
        ))
        reg, bus = MetricsRegistry(), EventBus(tmp_path / "events", "crash-test")
        previous = obs.install(Telemetry(metrics=reg, events=bus))
        journal = RunJournal.create(tmp_path / "runs", "r", {})
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                # Neither write raises, and the count is kept in memory.
                assert journal.record_crash("s", 0) == 1
                assert journal.record_crash("s", 1) == 1
        finally:
            obs.install(previous)
            bus.close()
        assert len(caught) == 1 and "no-space" in str(caught[0].message)
        assert reg.grouped_counters()["run"]["journal.degraded_writes"] == 2
        events = [json.loads(line) for line in bus.path.read_text().splitlines()]
        degraded = [e for e in events if e["kind"] == "degraded-write"]
        assert [e["cause"] for e in degraded] == ["no-space"] * 2
        assert all(e["what"].startswith("crash count of task") for e in degraded)
        assert journal.crash_counts("s") == {}

    def test_status_write_enospc_absorbed(self, tmp_path):
        _use_chaos(ChaosPlan(
            state_dir=str(tmp_path / "state"),
            faults=(Fault(kind="enospc", site="journal.status"),),
        ))
        journal = RunJournal.create(tmp_path / "runs", "r", {})
        with pytest.warns(UserWarning, match="status.json"):
            journal.write_status({"complete": True})
        assert journal.degraded_writes == 1
        assert not (journal.run_dir / "status.json").exists()
