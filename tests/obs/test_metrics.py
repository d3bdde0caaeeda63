"""Tests for the metrics registry and its ambient recording API."""

import json

from repro.engine.backends.base import observing
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

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.0)
        assert reg.gauges == {"g": 7.0}

    def test_histograms_track_count_sum_buckets(self):
        reg = MetricsRegistry()
        for v in (0.3, 0.4, 3.0):
            reg.observe("h", v)
        hist = reg.histograms["h"]
        assert hist["count"] == 3
        assert abs(hist["sum"] - 3.7) < 1e-12
        # 0.3 and 0.4 share the <=2^-1 bucket; 3.0 lands in <=2^2.
        assert hist["buckets"] == {"<=2^-1": 2, "<=2^2": 1}

    def test_nonpositive_and_nonfinite_bucket_labels(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.0)
        reg.observe("h", float("inf"))
        assert set(reg.histograms["h"]["buckets"]) == {"<=0", "inf"}

    def test_merge_adds_counters_under_prefix(self):
        main, delta = MetricsRegistry(), MetricsRegistry()
        main.add("E1/x", 1)
        delta.add("x", 2)
        delta.add("y", 3)
        main.merge(delta, "E1")
        assert main.counters == {"E1/x": 3, "E1/y": 3}

    def test_merge_combines_histograms(self):
        main, delta = MetricsRegistry(), MetricsRegistry()
        main.observe("h", 1.0)
        delta.observe("h", 1.0)
        main.merge(delta)
        assert main.histograms["h"]["count"] == 2

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
        reg.observe("a/h", 0.5)
        doc = json.loads(json.dumps(reg.to_dict()))
        assert list(doc["counters"]) == ["a", "b"]
        assert doc["histograms"]["a"]["h"]["count"] == 1

    def test_bool_reflects_emptiness(self):
        reg = MetricsRegistry()
        assert not reg
        reg.add("x")
        assert reg


class TestAmbientApi:
    def test_noop_without_sink(self):
        # Must not raise and must not keep anything anywhere.
        obs_metrics.add("orphan")
        obs_metrics.set_gauge("orphan", 1.0)
        obs_metrics.observe("orphan", 1.0)
        assert not obs_metrics.collecting()

    def test_writes_land_in_installed_sink(self):
        reg = MetricsRegistry()
        obs_metrics.install(reg)
        obs_metrics.add("hits", 2)
        obs_metrics.set_gauge("level", 0.5)
        obs_metrics.observe("secs", 1.5)
        assert reg.counters == {"hits": 2}
        assert reg.gauges == {"level": 0.5}
        assert reg.histograms["secs"]["count"] == 1
        assert obs_metrics.collecting()

    def test_prefix_scope_namespaces_sink_writes(self):
        reg = MetricsRegistry()
        obs_metrics.install(reg)
        with obs_metrics.prefix_scope("E1"):
            obs_metrics.add("calls")
        obs_metrics.add("calls")
        assert reg.counters == {"E1/calls": 1, "calls": 1}

    def test_task_buffer_diverts_writes_from_sink(self):
        reg = MetricsRegistry()
        obs_metrics.install(reg)
        prev = obs_metrics.begin_task()
        obs_metrics.add("inner", 3)
        delta = obs_metrics.end_task(prev)
        assert reg.counters == {}
        assert delta.counters == {"inner": 3}

    def test_merge_task_metrics_applies_current_prefix(self):
        reg = MetricsRegistry()
        obs_metrics.install(reg)
        delta = MetricsRegistry()
        delta.add("inner", 3)
        with obs_metrics.prefix_scope("E7"):
            obs_metrics.merge_task_metrics(delta)
        assert reg.counters == {"E7/inner": 3}

    def test_merge_task_metrics_tolerates_none(self):
        obs_metrics.install(MetricsRegistry())
        obs_metrics.merge_task_metrics(None)  # no-op, no raise

    def test_run_metrics_switch_enables_worker_buffering(self):
        # Worker processes have no sink; the metrics switch of the run
        # context they were shipped alone must make the executor push
        # task buffers.
        assert not obs_metrics.collecting() and not observing()
        with run_scope(metrics=True):
            assert observing()
        assert not observing()

    def test_nested_task_buffers_restore_previous(self):
        outer_prev = obs_metrics.begin_task()
        obs_metrics.add("outer")
        inner_prev = obs_metrics.begin_task()
        obs_metrics.add("inner")
        inner = obs_metrics.end_task(inner_prev)
        obs_metrics.add("outer")
        outer = obs_metrics.end_task(outer_prev)
        assert inner.counters == {"inner": 1}
        assert outer.counters == {"outer": 2}
