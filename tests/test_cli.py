"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.engine import chaos
from repro.engine.chaos import ChaosPlan, Fault
from repro.engine.executor import JOBS_CAP
from repro.engine.journal import RunJournal
from repro.engine.registry import all_specs


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in all_specs():
            assert exp_id in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "E99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_design_experiments_listed(self, capsys):
        # All DESIGN.md experiments must be runnable from the CLI.
        main(["list"])
        out = capsys.readouterr().out
        for k in range(1, 23):
            assert f"E{k} " in out or f"E{k}\n" in out or f"E{k}  " in out


class TestRun:
    def test_run_single_experiment_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "E11", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "E11" in out and "PASS" in out
        assert (tmp_path / "E11.txt").exists()
        doc = json.loads((tmp_path / "E11.json").read_text())
        assert doc["experiment_id"] == "E11"

    def test_run_comma_list(self, capsys):
        code = main(["run", "e11,e13"])  # lower-case accepted
        out = capsys.readouterr().out
        assert code == 0
        assert "E11" in out and "E13" in out

    def test_out_writes_summary_json(self, tmp_path, capsys):
        code = main(["run", "E11,E13", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["scale"] == "quick"
        assert doc["passed"] is True
        ids = [e["experiment_id"] for e in doc["experiments"]]
        assert ids == ["E11", "E13"]
        for entry in doc["experiments"]:
            assert entry["passed"] is True
            assert entry["checks"] and all(
                isinstance(v, bool) for v in entry["checks"].values()
            )
            assert entry["timings"]["total"] > 0.0

    def test_timings_flag_renders_stage_times(self, capsys):
        code = main(["run", "E13", "--timings"])
        out = capsys.readouterr().out
        assert code == 0
        assert "timings (wall-clock seconds):" in out
        assert "total:" in out

    def test_no_timings_by_default(self, capsys):
        code = main(["run", "E13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "timings" not in out

    def test_seed_override_changes_results(self, tmp_path, capsys):
        main(["run", "E13", "--out", str(tmp_path / "a")])
        main(["run", "E13", "--out", str(tmp_path / "b"), "--seed", "99"])
        main(["run", "E13", "--out", str(tmp_path / "c"), "--seed", "99"])
        capsys.readouterr()
        default = (tmp_path / "a" / "E13.json").read_text()
        seeded = (tmp_path / "b" / "E13.json").read_text()
        seeded_again = (tmp_path / "c" / "E13.json").read_text()
        assert seeded != default  # the override reaches the driver
        assert seeded == seeded_again  # and is itself deterministic

    def test_jobs_flag_is_deterministic(self, tmp_path, capsys):
        main(["run", "E13", "--out", str(tmp_path / "j1"), "--jobs", "1"])
        main(["run", "E13", "--out", str(tmp_path / "j2"), "--jobs", "2"])
        capsys.readouterr()
        assert (tmp_path / "j1" / "E13.json").read_bytes() == (
            tmp_path / "j2" / "E13.json"
        ).read_bytes()


class TestFailurePaths:
    """Every operational failure must exit non-zero with a one-line,
    actionable message — never a traceback."""

    def test_nonexistent_experiment_names_known_ids(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "E99"])
        assert "unknown experiment" in str(err.value)
        assert "E1" in str(err.value)  # the message lists what *is* valid

    def test_unwritable_out_directory(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("plain file")
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--out", str(blocker / "results")])
        assert "cannot create --out directory" in str(err.value)

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--jobs", "-3"])
        assert err.value.code == 2  # argparse usage error

    def test_absurd_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--jobs", "999999"])
        assert err.value.code == 2
        assert "sanity cap" in capsys.readouterr().err

    def test_zero_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--on-error", "retry", "--retries", "0"])
        assert err.value.code == 2

    def test_negative_task_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--task-timeout", "-5"])
        assert err.value.code == 2

    def test_resume_missing_run_lists_known_ids(self, tmp_path, capsys):
        main(["run", "E11", "--run-id", "existing", "--runs-root", str(tmp_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--resume", "ghost", "--runs-root", str(tmp_path)])
        assert "no journaled run" in str(err.value)
        assert "existing" in str(err.value)

    def test_resume_corrupt_run_dir(self, tmp_path):
        run_dir = tmp_path / "broken"
        run_dir.mkdir()
        (run_dir / "meta.json").write_text("{ not json")
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--resume", "broken", "--runs-root", str(tmp_path)])
        assert "corrupt run metadata" in str(err.value)

    def test_resume_flag_mismatch(self, tmp_path, capsys):
        main(["run", "E11", "--run-id", "mine", "--runs-root", str(tmp_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "run", "E11", "--resume", "mine",
                    "--runs-root", str(tmp_path), "--seed", "42",
                ]
            )
        assert "seed" in str(err.value) and "--run-id" in str(err.value)

    def test_resume_backend_config_mismatch_names_fields(self, tmp_path, capsys):
        """S2: resuming under a different array-backend configuration is
        refused with a per-field diff, not a generic mismatch line."""
        main(["run", "E11", "--run-id", "mine", "--runs-root", str(tmp_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "run", "E11", "--resume", "mine",
                    "--runs-root", str(tmp_path), "--dtype", "float32",
                ]
            )
        message = str(err.value)
        assert "backend" in message
        assert "dtype" in message
        assert "float32" in message and "float64" in message

    def test_resume_compares_resolved_experiment_ids(self, tmp_path, capsys):
        """The journal records the ids the selection resolves to, so the
        same experiments typed differently resume."""
        root = str(tmp_path)
        assert main(["run", "e13", "--run-id", "typed", "--runs-root", root]) == 0
        assert main(["run", "E13", "--resume", "typed", "--runs-root", root]) == 0
        meta = json.loads((tmp_path / "typed" / "meta.json").read_text())
        assert meta["experiment_ids"] == ["E13"]

    def test_resume_accepts_a_journal_that_recorded_the_typed_selection(
        self, tmp_path, capsys
    ):
        """Journals written before the ids were recorded hold the typed
        selection under ``experiment``; it is resolved before comparing."""
        RunJournal.create(
            tmp_path, "older",
            {
                "experiment": "e13", "scale": "quick", "seed": None, "channel": None,
                "backend": {"backend": "numpy", "dtype": "float64", "topk": None},
            },
        )
        assert main(["run", "E13", "--resume", "older", "--runs-root", str(tmp_path)]) == 0
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--resume", "older", "--runs-root", str(tmp_path)])
        assert "experiment_ids=['E13']" in str(err.value)

    def test_negative_seed_is_refused_before_a_journal_exists(self, tmp_path, capsys):
        root = tmp_path / "runs"
        with pytest.raises(SystemExit) as err:
            main(["run", "E13", "--seed", "-1", "--run-id", "x", "--runs-root", str(root)])
        assert err.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (root / "x").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "E13", "--quarantine-after", "0"],
             "argument --quarantine-after: must be >= 1, got 0"),
            (["run", "E13", "--retries", "x"], "argument --retries: must be an integer"),
            (["top", "--interval", "0"], "argument --interval: must be positive, got 0"),
            (["tail", "--interval", "x"], "argument --interval: must be a number, got 'x'"),
            (["run", "E13", "--topk", "0"], "argument --topk: must be >= 1, got 0"),
        ],
        ids=["quarantine-after", "retries", "top-interval", "tail-interval", "topk"],
    )
    def test_number_errors_state_only_their_constraint(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert message in stderr
        assert "retries must" not in stderr and "timeout must" not in stderr

    @pytest.mark.parametrize("workers", ["-2", "0", str(JOBS_CAP + 1)])
    def test_dispatch_workers_outside_one_to_jobs_cap_rejected(self, workers, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "E13", "--executor", "dispatch", "--dispatch-workers", workers])
        assert err.value.code == 2
        assert f"must be between 1 and {JOBS_CAP}" in capsys.readouterr().err

    def test_dispatch_workers_default_to_jobs(self, tmp_path):
        from repro.cli import _build_executor

        args = build_parser().parse_args(
            ["run", "E13", "--jobs", "3", "--executor", "dispatch",
             "--runs-root", str(tmp_path)]
        )
        backend = _build_executor(args)
        assert backend.local_workers == 3
        assert backend._fleet is None  # nothing forks before a queue opens

    def test_dispatch_workers_require_dispatch_executor(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "run", "E11", "--dispatch-workers", "2",
                    "--runs-root", str(tmp_path),
                ]
            )
        assert "--executor dispatch" in str(err.value)

    def test_run_with_dispatch_executor_matches_serial(self, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        main(["run", "E11", "--out", str(serial_dir)])
        capsys.readouterr()
        dispatch_dir = tmp_path / "dispatch"
        main(
            [
                "run", "E11", "--out", str(dispatch_dir),
                "--executor", "dispatch", "--dispatch-workers", "2",
                "--runs-root", str(tmp_path / "runs"),
            ]
        )
        out = capsys.readouterr().out
        assert (dispatch_dir / "E11.json").read_bytes() == (
            serial_dir / "E11.json"
        ).read_bytes()
        summary = json.loads((dispatch_dir / "summary.json").read_text())
        assert summary["executor"] == "dispatch"
        assert "E11" in out

    def test_run_id_refuses_reuse(self, tmp_path, capsys):
        main(["run", "E11", "--run-id", "once", "--runs-root", str(tmp_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["run", "E11", "--run-id", "once", "--runs-root", str(tmp_path)])
        assert "--resume once" in str(err.value)

    def test_repeated_experiment_id_is_refused_up_front(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "E13,e13", "--run-id", "x", "--runs-root", str(tmp_path / "runs")])
        assert "E13 is selected more than once" in str(err.value)
        assert not (tmp_path / "runs").exists()

    def test_channel_override_is_checked_before_anything_runs(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "run", "E15,E4,E13", "--channel", "nakagami:m=2",
                    "--out", str(out), "--run-id", "c",
                    "--runs-root", str(tmp_path / "runs"),
                ]
            )
        assert "E4, E13 do not take a channel override" in str(err.value)
        assert not out.exists() and not (tmp_path / "runs").exists()

    def test_run_id_and_resume_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "run", "E11", "--run-id", "a", "--resume", "b",
                    "--runs-root", str(tmp_path),
                ]
            )
        assert "not both" in str(err.value)


def _spans(out_dir):
    return [json.loads(line) for line in (out_dir / "trace.jsonl").read_text().splitlines()]


def _summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def _use_plan(state_dir, monkeypatch, *faults):
    """Point ``$REPRO_CHAOS`` at a plan of ``faults`` kept in ``state_dir``."""
    state_dir.mkdir()
    plan_file = state_dir / "plan.json"
    plan = ChaosPlan(state_dir=str(state_dir), faults=faults)
    plan_file.write_text(json.dumps(plan.to_dict()))
    monkeypatch.setenv(chaos.CHAOS_ENV, str(plan_file))


@pytest.fixture(scope="class")
def whole_runs(tmp_path_factory):
    """``run E1,E7,E13`` at ``--jobs 1`` and at ``--jobs 2`` (whole
    experiments on the pool), journaled and with every telemetry sink on:
    ``{jobs: (out_dir, journal_dir)}``."""
    root = tmp_path_factory.mktemp("whole")
    dirs = {}
    for jobs in (1, 2):
        out, runs_root = root / f"out{jobs}", root / f"runs{jobs}"
        code = main(
            [
                "run", "E1,E7,E13", "--jobs", str(jobs), "--out", str(out),
                "--metrics", "--trace", "--profile",
                "--run-id", "w", "--runs-root", str(runs_root),
            ]
        )
        assert code == 0
        dirs[jobs] = (out, runs_root / "w")
    return dirs


class TestWholeExperiments:
    """A run of at least as many experiments as pool workers hands each
    experiment to a worker whole; apart from timings and worker
    attribution, everything it leaves behind reads as at ``--jobs 1``."""

    def test_result_files_are_the_jobs_1_bytes(self, whole_runs):
        (serial, _), (whole, _) = whole_runs[1], whole_runs[2]
        for name in ("E1.json", "E1.txt", "E7.json", "E7.txt", "E13.json", "E13.txt"):
            assert (whole / name).read_bytes() == (serial / name).read_bytes(), name

    def test_summary_entries_match_apart_from_timings(self, whole_runs):
        def entries(jobs):
            doc = _summary(whole_runs[jobs][0])
            return [
                {k: v for k, v in entry.items() if k != "timings"}
                for entry in doc["experiments"]
            ]

        assert entries(2) == entries(1)
        assert [e["experiment_id"] for e in entries(2)] == ["E1", "E7", "E13"]

    def test_metrics_counters_match(self, whole_runs):
        counters = {
            jobs: json.loads((out / "metrics.json").read_text())["counters"]
            for jobs, (out, _) in whole_runs.items()
        }
        assert counters[2] == counters[1]
        assert sorted(counters[2]) == ["E1", "E13", "E7"]

    def test_journal_health_and_status_stage_counts_match(self, whole_runs):
        from repro.engine.doctor import diagnose

        health = {jobs: _summary(out)["journal"] for jobs, (out, _) in whole_runs.items()}
        status = {
            jobs: json.loads((journal / "status.json").read_text())["journal"]
            for jobs, (_, journal) in whole_runs.items()
        }
        assert health[2] == health[1] == status[2] == status[1]
        assert sorted(health[2]["stages"]) == ["E1/networks", "E13/cells", "E7/networks"]
        findings = {
            jobs: diagnose(journal.parent)["findings"]
            for jobs, (_, journal) in whole_runs.items()
        }
        assert findings[2] == findings[1] == []

    def test_each_stage_is_profiled_where_it_ran(self, whole_runs):
        dumps = {
            jobs: _summary(out)["telemetry"]["profile"] for jobs, (out, _) in whole_runs.items()
        }
        assert dumps[2] == dumps[1] and dumps[2]
        out = whole_runs[2][0]
        assert all((out / name).stat().st_size > 0 for name in dumps[2])

    def test_trace_attributes_each_experiment_to_its_worker(self, whole_runs):
        from repro.obs.stats import stats_doc

        out = whole_runs[2][0]
        spans = _spans(out)
        by_id = {s["id"]: s for s in spans}
        experiments = [s for s in spans if s["kind"] == "experiment"]
        assert [s["name"] for s in experiments] == ["E1", "E7", "E13"]
        run_id = next(s["id"] for s in spans if s["kind"] == "run")
        for exp in experiments:
            assert exp["parent"] == run_id
            assert exp["meta"]["worker"].startswith("pool-")
        tasks = [s for s in spans if s["kind"] == "task"]
        assert len(tasks) == len([s for s in _spans(whole_runs[1][0]) if s["kind"] == "task"])
        for task in tasks:
            exp = by_id[by_id[task["parent"]]["parent"]]
            assert task["meta"]["worker"] == exp["meta"]["worker"]
        assert list(stats_doc(out)["spans"]["experiments"]) == ["E1", "E7", "E13"]

    @pytest.mark.parametrize(
        "selection, jobs, flags",
        [
            ("E1", 2, ()),
            ("E1,E13", 3, ()),
            ("E1,E13", 2, ("--task-timeout", "60")),
            ("E1,E13", 2, ("--executor", "dispatch", "--dispatch-workers", "2")),
        ],
        ids=["one-experiment", "fewer-experiments-than-workers", "task-timeout", "dispatch"],
    )
    def test_other_runs_keep_one_worker_task_per_sweep_task(
        self, tmp_path, capsys, selection, jobs, flags
    ):
        out = tmp_path / "out"
        code = main(
            [
                "run", selection, "--jobs", str(jobs), "--trace", "--out", str(out),
                "--runs-root", str(tmp_path / "runs"), *flags,
            ]
        )
        capsys.readouterr()
        assert code == 0
        spans = _spans(out)
        assert all("worker" not in s.get("meta", {}) for s in spans if s["kind"] == "experiment")
        assert all(s["meta"].get("worker") for s in spans if s["kind"] == "task")

    def test_worker_loss_reruns_the_experiment_with_per_task_workers(
        self, tmp_path, monkeypatch, capsys
    ):
        outcomes = {}
        for jobs in (1, 2):
            _use_plan(
                tmp_path / f"chaos{jobs}", monkeypatch,
                Fault(kind="worker-lost", stage="cells", index=5, once=False),
            )
            out = tmp_path / f"out{jobs}"
            with pytest.warns(UserWarning):
                code = main(
                    [
                        "run", "E1,E13", "--jobs", str(jobs), "--on-error", "skip",
                        "--run-id", "w", "--runs-root", str(tmp_path / f"runs{jobs}"),
                        "--out", str(out),
                    ]
                )
            err = capsys.readouterr().err
            summary = _summary(out)
            failures = [
                (entry["experiment_id"], f["stage"], f["index"])
                for entry in summary["experiments"]
                for f in entry.get("faults", {}).get("failures", [])
            ]
            outcomes[jobs] = (
                code,
                "INCOMPLETE: E13" in err,
                summary["incomplete"],
                failures,
                summary["journal"],
                (out / "E1.json").read_bytes(),
                (out / "E13.json").read_bytes(),
            )
        assert outcomes[2] == outcomes[1]
        assert outcomes[2][:4] == (1, True, True, [("E13", "cells", 5)])
        e13 = _summary(tmp_path / "out2")["experiments"][1]
        # The worker kills went per task: cell 5 was quarantined, and the
        # pool break that sent E13 back to the main process is on the record.
        assert e13["faults"]["failures"][0]["kind"] == "quarantined"
        assert e13["faults"]["events"][0]["kind"] == "pool-broken"

    def test_fault_naming_e7_strikes_only_e7s_networks_stage(
        self, tmp_path, monkeypatch, capsys
    ):
        # E1 and E7 both sweep a stage named "networks"; at --jobs 2 each
        # runs whole on its own worker, at the same time.
        outcomes = {}
        for jobs in (1, 2):
            _use_plan(
                tmp_path / f"chaos{jobs}", monkeypatch,
                Fault(kind="raise", stage="networks", index=0, experiment="E7"),
            )
            out = tmp_path / f"out{jobs}"
            code = main(
                ["run", "E1,E7", "--jobs", str(jobs), "--on-error", "skip",
                 "--out", str(out)]
            )
            assert "INCOMPLETE: E7" in capsys.readouterr().err
            failures = [
                (entry["experiment_id"], f["stage"], f["index"])
                for entry in _summary(out)["experiments"]
                for f in entry.get("faults", {}).get("failures", [])
            ]
            outcomes[jobs] = (code, failures, (out / "E1.json").read_bytes())
        assert outcomes[2] == outcomes[1]
        assert outcomes[2][1] == [("E7", "networks", 0)]

    def test_driver_error_matches_jobs_1(self, tmp_path, monkeypatch):
        messages, written = {}, {}
        for jobs in (1, 2):
            _use_plan(
                tmp_path / f"chaos{jobs}", monkeypatch,
                Fault(kind="raise", stage="cells", index=3),
            )
            out = tmp_path / f"out{jobs}"
            with pytest.raises(SystemExit) as err:
                main(["run", "E1,E13,E7", "--jobs", str(jobs), "--out", str(out)])
            messages[jobs] = err.value.code
            written[jobs] = sorted(p.name for p in out.iterdir())
        assert messages[2] == messages[1] == "injected crash in task 3 (stage 'cells')"
        assert written[2] == written[1] == ["E1.json", "E1.txt"]

    def test_results_are_written_as_they_land(self, tmp_path, monkeypatch):
        # E6 hangs in its worker: the experiments before it are on disk
        # while it runs, as they would be at --jobs 1.
        _use_plan(
            tmp_path / "chaos", monkeypatch,
            Fault(kind="hang", stage="simulate", index=0, hang_seconds=120.0),
        )
        out = tmp_path / "out"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "E13,E4,E6", "--jobs", "2",
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 100
            while not ((out / "E13.json").exists() and (out / "E4.json").exists()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.1)
            assert proc.poll() is None and not (out / "E6.json").exists()
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_no_experiment_is_issued_after_a_driver_error(self, tmp_path, monkeypatch):
        # The first sweep task of E1 and of E13 raises, so both workers'
        # experiments come back failed before E7 could be issued.
        messages, journals = {}, {}
        for jobs in (1, 2):
            _use_plan(tmp_path / f"chaos{jobs}", monkeypatch, Fault(kind="raise", index=0))
            runs_root = tmp_path / f"runs{jobs}"
            with pytest.raises(SystemExit) as err:
                main(
                    [
                        "run", "E1,E13,E7", "--jobs", str(jobs), "--out",
                        str(tmp_path / f"out{jobs}"), "--run-id", "r",
                        "--runs-root", str(runs_root),
                    ]
                )
            messages[jobs] = err.value.code
            journals[jobs] = runs_root / "r" / "stages"
        assert messages[2] == messages[1]
        assert messages[2].startswith("injected crash in task 0 ")
        assert not (tmp_path / "out2" / "E1.json").exists()
        assert not (journals[2] / "E7").exists()

    def test_a_fault_without_a_stage_fires_only_in_experiment_stages(
        self, tmp_path, monkeypatch
    ):
        # A stage-less fault matches every map_tasks stage; the pool's
        # experiments are not one, so the run reads as at --jobs 1.
        seen = {}
        for jobs in (1, 2):
            _use_plan(tmp_path / f"chaos{jobs}", monkeypatch, Fault(kind="raise", index=1))
            out = tmp_path / f"out{jobs}"
            code = main(
                [
                    "run", "E1,E13", "--jobs", str(jobs), "--on-error", "retry",
                    "--metrics", "--out", str(out),
                    "--runs-root", str(tmp_path / f"runs{jobs}"),
                ]
            )
            entries = [
                {k: v for k, v in entry.items() if k != "timings"}
                for entry in _summary(out)["experiments"]
            ]
            counters = json.loads((out / "metrics.json").read_text())["counters"]
            seen[jobs] = (code, entries, counters, (out / "E13.json").read_bytes())
        assert seen[2] == seen[1]
        assert seen[2][0] == 0
        assert seen[2][2]["E13"]["executor.retries"] == 1


class TestKillAndResume:
    """The headline robustness contract: a run that loses tasks exits
    non-zero with an incomplete marker, and resuming it reproduces the
    uninterrupted result byte for byte."""


    def test_faulted_run_resumes_to_identical_bytes(self, tmp_path, monkeypatch, capsys):
        clean_dir = tmp_path / "clean"
        main(["run", "E13", "--out", str(clean_dir)])
        capsys.readouterr()

        # A persistent injected crash takes out one sweep cell; the run
        # survives under --on-error skip but is marked incomplete.
        plan = ChaosPlan(
            state_dir=str(tmp_path / "chaos"),
            faults=(Fault(kind="raise", stage="cells", index=5, once=False),),
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan.to_dict()))
        monkeypatch.setenv(chaos.CHAOS_ENV, str(plan_file))
        faulted_dir = tmp_path / "faulted"
        with pytest.warns(UserWarning):
            code = main(
                [
                    "run", "E13", "--on-error", "skip",
                    "--run-id", "rt", "--runs-root", str(tmp_path / "runs"),
                    "--out", str(faulted_dir),
                ]
            )
        err = capsys.readouterr().err
        assert code == 1
        assert "INCOMPLETE" in err and "--resume rt" in err
        summary = json.loads((faulted_dir / "summary.json").read_text())
        assert summary["incomplete"] is True and summary["run_id"] == "rt"
        entry = summary["experiments"][0]
        assert entry["incomplete"] is True
        assert entry["faults"]["failures"][0]["index"] == 5

        # Resume without the fault: only the lost cell re-runs and the
        # aggregate matches the uninterrupted run exactly.
        monkeypatch.delenv(chaos.CHAOS_ENV)
        resumed_dir = tmp_path / "resumed"
        code = main(
            [
                "run", "E13", "--resume", "rt",
                "--runs-root", str(tmp_path / "runs"),
                "--out", str(resumed_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert (resumed_dir / "E13.json").read_bytes() == (
            clean_dir / "E13.json"
        ).read_bytes()
        status = json.loads(
            (tmp_path / "runs" / "rt" / "status.json").read_text()
        )
        assert status["complete"] is True


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(["report", "E13", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("# Experiment report")
        assert "E13" in text and "[PASS]" in text or "PASS" in text

    def test_report_to_stdout(self, capsys):
        code = main(["report", "E13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "## E13" in out
