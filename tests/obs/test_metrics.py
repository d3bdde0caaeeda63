"""Tests for the metrics registry and its ambient recording API."""

import json

from repro import obs
from repro.obs import Captured, Telemetry
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.run_context import run_scope


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.add("a")
        reg.add("a", 4)
        reg.add("b", 2.5)
        assert reg.counters == {"a": 5, "b": 2.5}

    def test_merge_adds_counters_under_prefix(self):
        main, delta = MetricsRegistry(), MetricsRegistry()
        main.add("E1/x", 1)
        delta.add("x", 2)
        delta.add("y", 3)
        main.merge(delta, "E1")
        assert main.counters == {"E1/x": 3, "E1/y": 3}

    def test_grouped_counters_namespaces_by_prefix(self):
        reg = MetricsRegistry()
        reg.add("E1/theorem1.cache_hits", 5)
        reg.add("executor.tasks", 2)
        grouped = reg.grouped_counters()
        assert grouped == {
            "E1": {"theorem1.cache_hits": 5},
            "run": {"executor.tasks": 2},
        }

    def test_to_dict_is_json_serialisable_and_sorted(self):
        reg = MetricsRegistry()
        reg.add("b/z")
        reg.add("a/y")
        doc = json.loads(json.dumps(reg.to_dict()))
        assert doc == {"counters": {"a": {"y": 1}, "b": {"z": 1}}}
        assert list(doc["counters"]) == ["a", "b"]

    def test_bool_reflects_emptiness(self):
        reg = MetricsRegistry()
        assert not reg
        reg.add("x")
        assert reg


class TestAmbientApi:
    def test_noop_without_sink(self):
        # Must not raise and must not keep anything anywhere.
        obs_metrics.add("orphan")
        assert obs.current().metrics is None

    def test_writes_land_in_installed_sink(self):
        reg = MetricsRegistry()
        obs.install(Telemetry(metrics=reg))
        obs_metrics.add("hits", 2)
        assert reg.counters == {"hits": 2}
        assert obs.current().metrics is reg

    def test_prefix_scope_namespaces_sink_writes(self):
        reg = MetricsRegistry()
        obs.install(Telemetry(metrics=reg))
        with obs_metrics.prefix_scope("E1"):
            obs_metrics.add("calls")
        obs_metrics.add("calls")
        assert reg.counters == {"E1/calls": 1, "calls": 1}

    def test_task_buffer_diverts_writes_from_sink(self):
        reg = MetricsRegistry()
        obs.install(Telemetry(metrics=reg))
        with obs.capture() as captured:
            obs_metrics.add("inner", 3)
        delta = captured.metrics
        assert reg.counters == {}
        assert delta.counters == {"inner": 3}

    def test_merge_task_metrics_applies_current_prefix(self):
        reg = MetricsRegistry()
        obs.install(Telemetry(metrics=reg))
        delta = MetricsRegistry()
        delta.add("inner", 3)
        with obs_metrics.prefix_scope("E7"):
            Captured(metrics=delta).adopt()
        assert reg.counters == {"E7/inner": 3}

    def test_merge_task_metrics_tolerates_none(self):
        obs.install(Telemetry(metrics=MetricsRegistry()))
        Captured(metrics=None).adopt()  # no-op, no raise

    def test_run_metrics_switch_enables_worker_buffering(self):
        # Worker processes have no sink; the metrics switch of the run
        # context they were shipped alone must make the executor push
        # task buffers.
        assert obs.current().metrics is None and not obs.observing()
        with run_scope(metrics=True):
            assert obs.observing()
        assert not obs.observing()

    def test_nested_task_buffers_restore_previous(self):
        with run_scope(metrics=True), obs.capture() as outer_capture:
            obs_metrics.add("outer")
            with obs.capture() as inner_capture:
                obs_metrics.add("inner")
            obs_metrics.add("outer")
        inner, outer = inner_capture.metrics, outer_capture.metrics
        assert inner.counters == {"inner": 1}
        assert outer.counters == {"outer": 2}
