"""Tests for hierarchical spans, the JSONL trace writer, and StageTimer."""

import errno
import json
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.obs import Telemetry
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, StageTimer, TraceWriter, span

DEV_FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(
    not DEV_FULL.exists(), reason="needs /dev/full, a device every write fills"
)


def _read_spans(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestSpan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="span kind"):
            Span("x", "banana", 1, None)

    def test_span_measures_without_tracer(self):
        with span("work", kind="stage") as sp:
            pass
        assert sp.duration >= 0.0
        assert sp.kind == "stage"

    def test_nesting_assigns_parent_ids(self, tmp_path):
        writer = TraceWriter(tmp_path / "trace.jsonl")
        obs.install(Telemetry(tracer=writer))
        with span("outer", kind="run") as outer:
            with span("mid", kind="experiment") as mid:
                with span("leaf", kind="stage") as leaf:
                    pass
        writer.close()
        assert mid.parent_id == outer.span_id
        assert leaf.parent_id == mid.span_id
        docs = {d["name"]: d for d in _read_spans(tmp_path / "trace.jsonl")}
        # Inner spans close (and emit) first; parents reference outer ids.
        assert docs["leaf"]["parent"] == docs["mid"]["id"]
        assert docs["mid"]["parent"] == docs["outer"]["id"]
        assert docs["outer"]["parent"] is None

    def test_emitted_doc_shape(self, tmp_path):
        writer = TraceWriter(tmp_path / "trace.jsonl")
        obs.install(Telemetry(tracer=writer))
        with span("E1", kind="experiment", scale="quick"):
            pass
        writer.close()
        (doc,) = _read_spans(tmp_path / "trace.jsonl")
        assert doc["name"] == "E1" and doc["kind"] == "experiment"
        assert doc["t0"] >= 0.0 and doc["dur"] >= 0.0
        assert doc["meta"] == {"scale": "quick"}
        assert writer.spans_written == 1

    def test_current_experiment_tracks_innermost(self):
        assert obs_trace.current_experiment() is None
        with span("E5", kind="experiment"):
            with span("sweep", kind="stage"):
                assert obs_trace.current_experiment() == "E5"
        assert obs_trace.current_experiment() is None


class TestDegradedWrites:
    """A trace that cannot be written never takes the run down: the
    event bus's policy — count, warn once, carry on."""

    @needs_dev_full
    def test_full_disk_survives_emit_and_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.symlink_to(DEV_FULL)
        reg = MetricsRegistry()
        writer = TraceWriter(path)
        obs.install(Telemetry(tracer=writer, metrics=reg))
        with pytest.warns(UserWarning, match="continuing without those spans"):
            with span("run", kind="run"):
                with span("sweep", kind="stage"):
                    pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            with span("again", kind="stage"):
                pass
            writer.close()
            writer.close()
        assert writer.spans_written == 0
        assert reg.grouped_counters()["run"]["trace.degraded_writes"] == 3

    def test_failed_write_keeps_what_was_written(self, tmp_path):
        class FullFile:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                pass

        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        obs.install(Telemetry(tracer=writer))
        with span("first", kind="stage"):
            pass
        writer._lines.close()
        writer._lines._fh = FullFile()
        with pytest.warns(UserWarning, match="continuing without those spans"):
            with span("lost", kind="stage"):
                pass
        with span("third", kind="stage"):
            pass
        writer.close()
        assert [d["name"] for d in _read_spans(path)] == ["first", "third"]
        assert writer.spans_written == 2


class TestStageTimer:
    def test_timings_accumulate_per_stage(self):
        timer = StageTimer()
        with timer.stage("sweep"):
            pass
        with timer.stage("sweep"):
            pass
        with timer.stage("aggregate"):
            pass
        assert set(timer.timings) == {"sweep", "aggregate"}
        assert timer.timings["sweep"] >= 0.0

    def test_stages_emit_spans_when_traced(self, tmp_path):
        writer = TraceWriter(tmp_path / "trace.jsonl")
        obs.install(Telemetry(tracer=writer))
        timer = StageTimer()
        with timer.stage("sweep"):
            pass
        writer.close()
        (doc,) = _read_spans(tmp_path / "trace.jsonl")
        assert doc["name"] == "sweep" and doc["kind"] == "stage"
        # The recorded timing is the span's measured duration.
        assert doc["dur"] == round(timer.timings["sweep"], 6)
