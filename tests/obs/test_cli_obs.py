"""CLI-level telemetry tests: flags, byte-identity, and ``repro stats``."""

import json
import warnings
from pathlib import Path

import pytest

from repro.cli import main


class TestTelemetryFlags:
    def test_telemetry_flags_require_out(self):
        with pytest.raises(SystemExit):
            main(["run", "E11", "--trace"])

    def test_run_with_telemetry_is_byte_identical(self, tmp_path, capsys):
        plain, observed = tmp_path / "plain", tmp_path / "observed"
        assert main(["run", "E11", "--out", str(plain)]) == 0
        assert main(
            ["run", "E11", "--out", str(observed), "--trace", "--metrics"]
        ) == 0
        capsys.readouterr()
        # The invariant: telemetry must never change result bytes.
        assert (observed / "E11.json").read_bytes() == (plain / "E11.json").read_bytes()
        assert (observed / "E11.txt").read_bytes() == (plain / "E11.txt").read_bytes()
        # ... while still recording spans and counters on the side.
        assert (observed / "trace.jsonl").is_file()
        metrics = json.loads((observed / "metrics.json").read_text())
        assert metrics["counters"]
        summary = json.loads((observed / "summary.json").read_text())
        assert summary["telemetry"]["trace"] == "trace.jsonl"
        assert summary["telemetry"]["metrics"] == "metrics.json"
        assert json.loads((plain / "summary.json").read_text()).get("telemetry") is None

    def test_trace_contains_all_span_kinds(self, tmp_path, capsys):
        # E7 drives the executor through a StageTimer stage, so its trace
        # exercises the full hierarchy: run → experiment → stage → task.
        out = tmp_path / "run"
        assert main(["run", "E7", "--out", str(out), "--trace"]) == 0
        capsys.readouterr()
        spans = [
            json.loads(line)
            for line in (out / "trace.jsonl").read_text().splitlines()
            if line.strip()
        ]
        kinds = {s["kind"] for s in spans}
        assert {"run", "experiment", "stage", "task"} <= kinds
        assert any(s["kind"] == "experiment" and s["name"] == "E7" for s in spans)

    @pytest.mark.skipif(
        not Path("/dev/full").exists(),
        reason="needs /dev/full, a device every write fills",
    )
    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    def test_trace_on_a_full_disk_keeps_the_run(self, tmp_path, capsys, on_error):
        """Every span write fails with ENOSPC; the run still passes, warns
        once, writes the bytes of an untraced run, and ``repro stats``
        counts the lost spans."""
        from repro.obs.stats import stats_doc

        plain, full = tmp_path / "plain", tmp_path / "full"
        assert main(["run", "E13", "--scale", "quick", "--out", str(plain)]) == 0
        full.mkdir()
        (full / "trace.jsonl").symlink_to("/dev/full")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "run", "E13", "--scale", "quick", "--out", str(full),
                "--trace", "--metrics", "--on-error", on_error,
            ])
        capsys.readouterr()
        assert code == 0
        messages = [str(w.message) for w in caught]
        assert sum("continuing without those spans" in m for m in messages) == 1
        assert (full / "E13.json").read_bytes() == (plain / "E13.json").read_bytes()
        doc = stats_doc(full)
        assert doc["fleet"]["trace.degraded_writes"] > 0
        assert doc["degraded_writes"]["counted"] == doc["fleet"]["trace.degraded_writes"]


class TestMonitorFlag:
    def test_monitored_run_is_byte_identical_at_any_jobs(self, tmp_path, capsys):
        # E1 drives a real task sweep, so the event bus sees the full
        # lifecycle (stage-start, task-*, stage-done) on every backend.
        plain = tmp_path / "plain"
        assert main(["run", "E1", "--out", str(plain)]) == 0
        for jobs, name in ((1, "m1"), (4, "m4")):
            out = tmp_path / name
            root = tmp_path / f"root-{name}"
            assert main([
                "run", "E1", "--monitor", "--trace", "--jobs", str(jobs),
                "--out", str(out), "--runs-root", str(root),
            ]) == 0
            capsys.readouterr()
            # The invariant extends to the live plane: events, the prom
            # snapshot, and stitched traces never touch result bytes.
            assert (out / "E1.json").read_bytes() == (plain / "E1.json").read_bytes()
            events = list((root / "events").glob("*.jsonl"))
            assert events and any(p.stat().st_size for p in events)
            assert (out / "metrics.prom").read_text().endswith("# EOF\n")
            summary = json.loads((out / "summary.json").read_text())
            assert summary["telemetry"]["events"]
            assert summary["telemetry"]["prom"] == "metrics.prom"
            # --monitor implies a metrics registry even without --metrics.
            assert summary["telemetry"]["metrics"] == "metrics.json"

    def test_monitor_without_out_still_events(self, tmp_path, capsys):
        root = tmp_path / "root"
        assert main([
            "run", "E1", "--monitor", "--runs-root", str(root),
        ]) == 0
        capsys.readouterr()
        assert list((root / "events").glob("*.jsonl"))

    def test_top_and_tail_render_the_monitored_run(self, tmp_path, capsys):
        root = tmp_path / "root"
        assert main([
            "run", "E1", "--monitor", "--runs-root", str(root),
        ]) == 0
        capsys.readouterr()
        assert main(["top", str(root), "--once"]) == 0
        frame = capsys.readouterr().out
        assert "repro top" in frame
        assert "100%" in frame
        assert main(["tail", str(root)]) == 0
        stream = capsys.readouterr().out
        assert "stage-start" in stream and "task-done" in stream


class TestStatsCommand:
    def test_stats_renders_observed_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(
            ["run", "E11", "--out", str(out), "--trace", "--metrics"]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        report = capsys.readouterr().out
        assert "status: PASS" in report
        assert "[E11]" in report
        assert "counters:" in report
        assert "trace:" in report

    def test_stats_renders_a_torn_trace(self, tmp_path, capsys):
        # A run killed mid-append leaves a half-written last span.
        out = tmp_path / "run"
        assert main(["run", "E13", "--scale", "quick", "--out", str(out), "--trace"]) == 0
        whole = len((out / "trace.jsonl").read_text().splitlines())
        with open(out / "trace.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"name": "task-9", "kind": "ta')
        capsys.readouterr()
        assert main(["stats", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["spans"]["total"] == whole
        assert main(["stats", str(out)]) == 0
        assert "[E13]" in capsys.readouterr().out

    def test_stats_on_empty_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path)])

    def test_stats_json_document(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(
            ["run", "E11", "--out", str(out), "--trace", "--metrics"]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["flags"]["scale"] == "quick"
        assert doc["metrics"]["counters"]
        assert doc["spans"]["total"] > 0
        assert "experiment" in doc["spans"]["by_kind"]
        assert doc["degraded_writes"] == {"journal": 0, "counted": 0}
        assert [e["experiment_id"] for e in doc["experiments"]] == ["E11"]

    def test_stats_openmetrics_exposition(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "E11", "--out", str(out), "--metrics"]) == 0
        capsys.readouterr()
        assert main(["stats", str(out), "--format", "openmetrics"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE" in text
        assert text.endswith("# EOF\n")
        assert 'scope="E11"' in text

    def test_stats_openmetrics_without_metrics_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "E11", "--out", str(out), "--trace"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="metrics.json"):
            main(["stats", str(out), "--format", "openmetrics"])

    def test_stats_renders_fleet_section_for_dispatch_run(self, tmp_path, capsys):
        out, root = tmp_path / "run", tmp_path / "root"
        assert main([
            "run", "E1", "--out", str(out), "--trace", "--metrics",
            "--executor", "dispatch", "--dispatch-workers", "2",
            "--runs-root", str(root),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        report = capsys.readouterr().out
        assert "fleet:" in report
        assert "executor.dispatch.queues" in report
        assert "workers:" in report
        assert main(["stats", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fleet"]["executor.dispatch.queues"] >= 1
        assert doc["spans"]["workers"]
