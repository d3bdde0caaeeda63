"""Event-bus unit tests: emission, degradation, heartbeats, ambience."""

import json

import pytest

from repro import obs
from repro.engine.backends.base import shipped_run
from repro.obs import Telemetry
from repro.obs import events as obs_events
from repro.obs.events import EventBus, Heartbeat
from repro.obs.metrics import MetricsRegistry


def _lines(bus: EventBus) -> list:
    return [
        json.loads(line)
        for line in bus.path.read_text().splitlines()
        if line.strip()
    ]


class TestEventBus:
    def test_emits_structured_lines(self, tmp_path):
        bus = EventBus(tmp_path / "events", "run-test-1")
        bus.emit("task-start", stage="sweep", index=3)
        bus.emit("task-done", stage="sweep", index=3, seconds=0.5)
        bus.close()
        docs = _lines(bus)
        assert [d["kind"] for d in docs] == ["task-start", "task-done"]
        assert [d["seq"] for d in docs] == [1, 2]
        first = docs[0]
        assert first["src"] == "run-test-1"
        assert first["stage"] == "sweep"
        assert first["index"] == 3
        # Every event is stamped with identity and wall-clock time.
        assert {"ts", "host", "pid"} <= set(first)

    def test_none_fields_are_dropped(self, tmp_path):
        bus = EventBus(tmp_path / "events", "s")
        bus.emit("stage-start", stage="x", experiment=None)
        bus.close()
        assert "experiment" not in _lines(bus)[0]

    def test_directory_created_lazily(self, tmp_path):
        bus = EventBus(tmp_path / "events", "s")
        assert not (tmp_path / "events").exists()
        bus.emit("hello")
        assert bus.path.is_file()
        bus.close()

    def test_degraded_write_counts_and_warns_once(self, tmp_path):
        # A *file* where the events directory should be makes every
        # open fail — the exhaustion path, minus the full disk.
        (tmp_path / "events").write_text("in the way")
        reg = MetricsRegistry()
        bus = EventBus(tmp_path / "events", "s")
        obs.install(Telemetry(metrics=reg))
        with pytest.warns(UserWarning, match="continuing without live events"):
            bus.emit("task-start", index=0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # a second warning would raise
            bus.emit("task-start", index=1)
        assert reg.grouped_counters()["run"]["events.degraded_writes"] == 2
        assert bus.events_written == 0


class TestAmbientBus:
    def test_emit_without_bus_is_noop(self):
        obs_events.emit("task-start", index=0)  # must not raise

    def test_install_and_emit(self, tmp_path):
        bus = EventBus(tmp_path / "events", "s")
        assert obs.install(Telemetry(events=bus)).events is None
        obs_events.emit("queue-open", queue="q1")
        assert obs.current().events is bus
        assert shipped_run().events == str(bus.directory)
        previous = obs.install(None).events
        assert previous is bus
        bus.close()
        assert _lines(bus)[0]["queue"] == "q1"

    def test_ensure_bus_is_idempotent_per_directory(self, tmp_path):
        first = obs_events.ensure_bus(tmp_path / "events", role="worker")
        again = obs_events.ensure_bus(tmp_path / "events", role="worker")
        assert again is first
        other = obs_events.ensure_bus(tmp_path / "elsewhere")
        assert other is not first


class TestHeartbeat:
    def test_disabled_when_period_nonpositive(self, tmp_path):
        obs.install(Telemetry(events=EventBus(tmp_path / "events", "s")))
        assert Heartbeat("worker", period=0).beat(tasks=1) is False

    def test_silent_without_a_bus(self):
        assert Heartbeat("worker", period=0.001).beat(tasks=1) is False

    def test_fires_once_per_period_with_rate(self, tmp_path):
        bus = EventBus(tmp_path / "events", "s")
        obs.install(Telemetry(events=bus))
        pulse = Heartbeat("worker", period=3600.0)
        assert pulse.beat(tasks=0, worker="w") is True
        assert pulse.beat(tasks=5) is False  # within the period
        bus.close()
        docs = _lines(bus)
        assert len(docs) == 1
        beat = docs[0]
        assert beat["kind"] == "heartbeat"
        assert beat["role"] == "worker"
        assert beat["tasks"] == 0
        assert beat["worker"] == "w"
        assert "rss" in beat or beat.get("rss") is None
