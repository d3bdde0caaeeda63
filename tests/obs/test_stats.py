"""Tests for the ``repro stats`` run-directory renderer."""

import json

import pytest

from repro.obs.stats import RunDirError, render_run_dir, stats_doc


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def _summary(**overrides):
    entry = {
        "experiment_id": "E1",
        "title": "Figure 1",
        "passed": True,
        "timings": {"sweep": 1.25, "total": 1.5},
    }
    entry.update(overrides)
    return {
        "scale": "quick",
        "jobs": 4,
        "passed": entry["passed"],
        "experiments": [entry],
    }


class TestRenderRunDir:
    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(RunDirError, match="holds no summary.json"):
            render_run_dir(tmp_path)

    def test_corrupt_summary_raises(self, tmp_path):
        (tmp_path / "summary.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(RunDirError, match="cannot read"):
            render_run_dir(tmp_path)

    def test_summary_renders_flags_status_and_timings(self, tmp_path):
        _write(tmp_path / "summary.json", _summary())
        out = render_run_dir(tmp_path)
        assert "flags: scale='quick', jobs=4" in out
        assert "status: PASS" in out
        assert "[E1] Figure 1  [PASS]" in out
        assert "sweep=1.250s" in out

    def test_fault_records_render(self, tmp_path):
        # Satellite: stats is the reader of the fault metadata past runs
        # have carried in summary.json since the fault-tolerance work.
        entry_faults = {
            "events": [{"kind": "pool_rebuild", "detail": "worker died"}],
            "failures": [
                {
                    "index": 3,
                    "stage": "sweep",
                    "kind": "error",
                    "attempts": 2,
                    "message": "boom",
                }
            ],
        }
        _write(
            tmp_path / "summary.json",
            _summary(passed=False, faults=entry_faults, incomplete=True),
        )
        out = render_run_dir(tmp_path)
        assert "[event] pool_rebuild: worker died" in out
        assert "[lost]  task 3 (stage 'sweep') error after 2 attempt(s): boom" in out
        assert "result is INCOMPLETE" in out

    def test_counters_and_histograms_render(self, tmp_path):
        _write(tmp_path / "summary.json", _summary())
        _write(
            tmp_path / "metrics.json",
            {
                "counters": {
                    "E1": {"theorem1.cache_hits": 12},
                    "run": {"executor.tasks": 8},
                },
                "histograms": {
                    "E1": {
                        "executor.task_seconds": {
                            "count": 8,
                            "sum": 2.0,
                            "buckets": {"<=2^-2": 8},
                        }
                    }
                },
            },
        )
        out = render_run_dir(tmp_path)
        assert "theorem1.cache_hits" in out and "12" in out
        assert "executor.tasks" in out
        assert "histogram E1/executor.task_seconds: count=8" in out

    def test_spans_render_per_experiment_subtree(self, tmp_path):
        _write(tmp_path / "summary.json", _summary())
        spans = [
            {"name": "run", "kind": "run", "id": 1, "parent": None, "t0": 0, "dur": 2.0},
            {"name": "E1", "kind": "experiment", "id": 2, "parent": 1, "t0": 0, "dur": 1.9},
            {"name": "sweep", "kind": "stage", "id": 3, "parent": 2, "t0": 0, "dur": 1.5},
            {"name": "task-0", "kind": "task", "id": 4, "parent": 3, "t0": 0, "dur": 0.7},
            {"name": "task-1", "kind": "task", "id": 5, "parent": 3, "t0": 0.7, "dur": 0.7},
        ]
        (tmp_path / "trace.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8"
        )
        out = render_run_dir(tmp_path)
        assert "sweep: 1.500s" in out
        assert "tasks: 2 (sum 1.400s, mean 0.7000s)" in out
        assert "trace: 5 span(s) in trace.jsonl" in out

    def test_metrics_only_directory_renders_scopes(self, tmp_path):
        _write(
            tmp_path / "metrics.json",
            {"counters": {"E7": {"mc.samples": 600}}},
        )
        out = render_run_dir(tmp_path)
        assert "[E7]" in out and "mc.samples" in out

    def test_profile_dumps_listed(self, tmp_path):
        _write(tmp_path / "summary.json", _summary())
        (tmp_path / "profile-E1-sweep.pstats").write_bytes(b"")
        out = render_run_dir(tmp_path)
        assert "profile: profile-E1-sweep.pstats" in out

    def test_pool_worker_losses_reach_the_fleet_section(self, tmp_path):
        # Every backend counts a worker death under one name, so a pool
        # run's losses show up next to a dispatch run's.
        _write(tmp_path / "summary.json", _summary())
        _write(
            tmp_path / "metrics.json",
            {"counters": {"E1": {"executor.worker_losses": 2, "quarantine.tasks": 1}}},
        )
        out = render_run_dir(tmp_path)
        assert "fleet:" in out
        assert "executor.worker_losses  2" in out
        assert stats_doc(tmp_path)["fleet"]["executor.worker_losses"] == 2

    def test_dispatch_run_report_names_its_executor(self, tmp_path, capsys):
        # The human report and --json list the same flags.
        from repro.cli import main

        out = tmp_path / "out"
        assert main([
            "run", "E13", "--executor", "dispatch", "--dispatch-workers", "1",
            "--runs-root", str(tmp_path / "runs"), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert "executor='dispatch'" in render_run_dir(out)
        assert stats_doc(out)["flags"]["executor"] == "dispatch"
