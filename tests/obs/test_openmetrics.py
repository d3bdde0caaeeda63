"""OpenMetrics exposition tests: format shape, bucket math, snapshotter."""

import errno
import math
import time
import warnings

from repro import obs
from repro.obs import Telemetry
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import MetricsSnapshotter, render


def _doc():
    reg = MetricsRegistry()
    obs.install(Telemetry(metrics=reg))
    try:
        with obs_metrics.prefix_scope("E1"):
            obs_metrics.add("demo.calls", 3)
            obs_metrics.observe("demo.size", 0.75)  # <=2^0 bucket
            obs_metrics.observe("demo.size", 3.0)   # <=2^2 bucket
            obs_metrics.observe("demo.size", 3.5)   # <=2^2 bucket
        obs_metrics.add("run.total", 1)
        obs_metrics.set_gauge("run.level", 0.5)
    finally:
        obs.install(None)
    return reg.to_dict()


class TestRender:
    def test_counters_get_total_suffix_and_scope_label(self):
        text = render(_doc())
        assert "# TYPE repro_demo_calls counter" in text
        assert 'repro_demo_calls_total{scope="E1"} 3' in text
        assert 'repro_run_total_total{scope="run"} 1' in text

    def test_gauges_render_plain(self):
        text = render(_doc())
        assert "# TYPE repro_run_level gauge" in text
        assert 'repro_run_level{scope="run"} 0.5' in text

    def test_histogram_buckets_are_cumulative_with_numeric_bounds(self):
        lines = render(_doc()).splitlines()
        buckets = [ln for ln in lines if ln.startswith("repro_demo_size_bucket")]
        # One observation at <= 1.0, all three at <= 4.0, all at +Inf.
        assert any('le="1.0"} 1' in ln for ln in buckets)
        assert any('le="4.0"} 3' in ln for ln in buckets)
        assert buckets[-1].endswith('le="+Inf"} 3')
        bounds = []
        for ln in buckets[:-1]:
            bounds.append(float(ln.split('le="')[1].split('"')[0]))
        assert bounds == sorted(bounds)
        assert 'repro_demo_size_count{scope="E1"} 3' in lines
        total = [ln for ln in lines if ln.startswith("repro_demo_size_sum")]
        assert math.isclose(float(total[0].rsplit(" ", 1)[1]), 7.25)

    def test_ends_with_eof(self):
        assert render(_doc()).endswith("# EOF\n")

    def test_metric_names_sanitised(self):
        doc = {"counters": {"run": {"a.b-c/d": 1}}}
        assert "repro_a_b_c_d_total" in render(doc)

    def test_empty_doc_is_valid(self):
        assert render({}) == "# EOF\n"


class TestSnapshotter:
    def test_writes_and_final_snapshot_on_stop(self, tmp_path):
        reg = MetricsRegistry()
        obs.install(Telemetry(metrics=reg))
        try:
            obs_metrics.add("demo.calls", 2)
        finally:
            obs.install(None)
        path = tmp_path / "metrics.prom"
        snap = MetricsSnapshotter(reg, path, interval=3600.0).start()
        snap.stop()
        text = path.read_text()
        assert 'repro_demo_calls_total{scope="run"} 2' in text
        assert text.endswith("# EOF\n")

    def test_write_failure_is_silent(self, tmp_path):
        target = tmp_path / "not-a-dir" / "metrics.prom"
        snap = MetricsSnapshotter(MetricsRegistry(), target, interval=3600.0)
        assert snap._write() is False  # no raise, no file
        assert not target.exists()

    def test_failed_snapshot_is_counted_with_one_warning(self, tmp_path, monkeypatch):
        # The snapshot follows the best-effort writers' policy, and the
        # scope stops it while the registry is installed, so its failed
        # final write is counted in metrics.json.
        def full(path, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.obs.openmetrics.atomic_write_text", full)
        reg = MetricsRegistry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with obs.obs_scope(Telemetry(metrics=reg, snapshot=tmp_path / "metrics.prom")):
                obs_metrics.add("demo.calls")
        assert [str(w.message) for w in caught if "metrics.prom" in str(w.message)] == [
            f"cannot write {tmp_path / 'metrics.prom'} ([Errno {errno.ENOSPC}] No space "
            "left on device); continuing without the live metrics snapshot — results "
            "are unaffected"
        ]
        assert reg.counters == {"demo.calls": 1, "metrics.degraded_writes": 1}
        assert not (tmp_path / "metrics.prom").exists()

    def test_snapshot_thread_counts_into_the_rendered_registry(self, tmp_path, monkeypatch):
        # The main thread's prefix and task captures are not the
        # snapshot thread's: its failures count at run scope.
        def full(path, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.obs.openmetrics.atomic_write_text", full)
        reg = MetricsRegistry()
        snap = MetricsSnapshotter(reg, tmp_path / "metrics.prom", interval=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with obs.obs_scope(Telemetry(metrics=reg)), obs_metrics.prefix_scope("E7"):
                snap.start()
                with obs.capture():
                    time.sleep(0.2)
                snap.stop()
        assert list(reg.counters) == ["metrics.degraded_writes"]
        assert reg.counters["metrics.degraded_writes"] >= 2
