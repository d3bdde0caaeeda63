"""Telemetry layer: spans, metrics, profiles and events, installed as one.

Zero-dependency observability for the reproduction engine.  Four modules
are sinks a run writes into:

* :mod:`repro.obs.trace` — hierarchical spans (run → experiment →
  stage → task) emitted as JSONL; :class:`~repro.obs.trace.StageTimer`
  and every ``timings`` entry are renderings of span data.
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry the
  hot kernels report into.
* :mod:`repro.obs.profile` — optional per-stage cProfile dumps.
* :mod:`repro.obs.events` — the live JSONL event bus a monitored run
  (``--monitor``) appends under ``<runs-root>/events/``: task
  lifecycle, re-issues, quarantines, degraded writes, chaos faults,
  worker heartbeats.

Three read what a run left behind:

* :mod:`repro.obs.stats` — the ``repro stats <run-dir>`` renderer.
* :mod:`repro.obs.live` — ``repro top`` / ``repro tail``, the
  files-only live views over the event bus.
* :mod:`repro.obs.openmetrics` — the Prometheus text exposition
  (``repro stats --format openmetrics`` and the ``metrics.prom``
  snapshot a monitored run refreshes).

One :class:`Telemetry` record holds a process's four sinks, and
:func:`install` is their one setter.  :func:`obs_scope` installs a run's
record for its duration — the same pattern as
:func:`~repro.run_context.run_scope`, and composable with it (the CLI
nests one inside the other).  A forked worker drops what it inherited
with :func:`shed`.  Whatever runs in a worker — one task, or a whole
experiment — runs under :func:`capture`, whose :class:`Captured` record
travels back to the dispatching process and is folded into its sinks
by :meth:`Captured.adopt`.

The layer's hard invariant: telemetry on or off, any sink, any
``--jobs`` value, the result bytes of every experiment are identical.
Spans and counters consume no randomness, never mutate kernel outputs,
and are excluded from result JSON; CI's ``obs-smoke`` job ``cmp``-s the
bytes to keep it that way.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import SNAPSHOT_FILENAME, MetricsSnapshotter
from repro.obs.trace import SpanCollector, StageTimer, TraceWriter, span
from repro.run_context import current_run

__all__ = [
    "Captured",
    "EventBus",
    "MetricsRegistry",
    "StageTimer",
    "Telemetry",
    "TraceWriter",
    "capture",
    "current",
    "experiment_scope",
    "install",
    "obs_scope",
    "observing",
    "shed",
    "span",
]

#: File names a telemetry-enabled run writes into its run directory.
TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.json"


@dataclass
class Telemetry:
    """The sinks of one process (any subset may be ``None``)."""

    tracer: "TraceWriter | SpanCollector | None" = None
    metrics: "MetricsRegistry | None" = None
    profile_dir: "Path | None" = None
    events: "EventBus | None" = None
    #: File names of the profile dumps written while this record was installed.
    profiles: "list[str]" = field(default_factory=list)
    #: Where :func:`obs_scope` keeps the live OpenMetrics exposition of
    #: ``metrics`` (``--monitor`` with ``--out``).
    snapshot: "Path | None" = None

    @classmethod
    def for_run_dir(
        cls, out_dir, *, trace: bool, metrics: bool, profile: bool, events: "str | None" = None
    ) -> "Telemetry | None":
        """The record a ``repro run`` invocation asks for: the trace,
        metrics, profile dumps and snapshot inside ``out_dir``, and the
        event bus under ``events`` (``None`` when nothing is on)."""
        if not (trace or metrics or profile or events):
            return None
        out = None if out_dir is None else Path(out_dir)
        return cls(
            tracer=TraceWriter(out / TRACE_FILENAME) if trace else None,
            metrics=MetricsRegistry() if metrics else None,
            profile_dir=out if profile else None,
            events=EventBus(events, _events.default_source("run")) if events else None,
            snapshot=out / SNAPSHOT_FILENAME if events and out is not None else None,
        )


_INSTALLED = Telemetry()


def install(telemetry: "Telemetry | None") -> Telemetry:
    """Make ``telemetry``'s sinks this process's (``None``: all off) and
    return the record installed before, for restoring it.

    Each sink module keeps its sink in a module global, so that its
    inactive fast path stays one ``None`` check; this is their one
    setter."""
    global _INSTALLED
    previous, _INSTALLED = _INSTALLED, telemetry if telemetry is not None else Telemetry()
    _trace._TRACER = _INSTALLED.tracer
    _metrics._REGISTRY = _INSTALLED.metrics
    _profile._PROFILE_DIR = _INSTALLED.profile_dir
    _profile._DUMPED = _INSTALLED.profiles
    _events._BUS = _INSTALLED.events
    return previous


def current() -> Telemetry:
    """The installed record (all ``None`` when telemetry is off)."""
    return _INSTALLED


def shed() -> None:
    """Drop what a forked worker inherited from the process it was
    forked from, so that it starts as a fresh process would:

    * the event bus: its writes would land in the parent's file under
      the parent's identity;
    * the trace writer: workers *collect* spans for the dispatcher to
      stitch, and a forked id counter writing the trace file itself
      would collide with the parent's span ids;
    * the metrics registry: worker metrics travel on captures;
    * the profile directory and the profiler of the stage the fork
      happened in, which would otherwise time every task under cProfile
      and never be dumped.
    """
    if _profile._ACTIVE is not None:
        _profile._ACTIVE.disable()
        _profile._ACTIVE = None
    install(None)


@contextmanager
def obs_scope(telemetry: "Telemetry | None"):
    """Install ``telemetry`` for the block, then restore the previous
    record and close the trace writer and the event bus (metrics and
    profile names stay on the record for the caller to serialise).

    With a ``snapshot`` path, a :class:`MetricsSnapshotter` refreshes it
    meanwhile; it writes its final snapshot, or counts the failed write,
    before the previous record is restored."""
    if telemetry is None:
        yield None
        return
    previous = install(telemetry)
    snapshotter = None
    try:
        if telemetry.snapshot is not None:
            snapshotter = MetricsSnapshotter(telemetry.metrics, telemetry.snapshot).start()
        yield telemetry
    finally:
        if snapshotter is not None:
            snapshotter.stop()
        install(previous)
        if telemetry.tracer is not None:
            telemetry.tracer.close()
        if telemetry.events is not None:
            telemetry.events.close()


def observing() -> bool:
    """Whether a task execution should run under :func:`capture`: the
    run collects metrics or spans, or this process has a registry or a
    tracer to feed."""
    run = current_run()
    return run.metrics or run.spans or _metrics._REGISTRY is not None or _trace._TRACER is not None


@dataclass
class Captured:
    """What :func:`capture` measured in a worker, for the dispatching
    process to :meth:`adopt`."""

    #: Counters, gauges and histograms, unprefixed (``None``: not collected).
    metrics: "MetricsRegistry | None" = None
    #: A :class:`~repro.obs.trace.SpanCollector` buffer (empty when the
    #: spans were emitted in place, or nothing traced them).
    spans: "list[dict[str, Any]]" = field(default_factory=list)
    #: The collector's epoch, on the ``perf_counter`` clock that every
    #: process on the host shares.
    epoch: float = 0.0
    seconds: float = 0.0
    worker: "str | None" = None
    #: Profile dumps written into the installed directory.
    profiles: "list[str]" = field(default_factory=list)

    def adopt(self) -> None:
        """Fold this record into this process's sinks: merge the metrics
        under the current prefix, stitch the spans under the open span
        at their measured times, and count the profile dumps."""
        registry = _metrics._REGISTRY
        if registry is not None and self.metrics is not None:
            registry.merge(self.metrics, _metrics._PREFIX.rstrip("/"))
        if self.spans:
            _trace.emit_subtree(self.spans, self.epoch)
        _profile._DUMPED.extend(self.profiles)


@contextmanager
def capture(*, worker: "str | None" = None, profile_dir: "Path | None" = None):
    """Collect what the block does into a :class:`Captured` record.

    Installs a fresh metrics buffer (when the run or this process
    collects metrics) with no prefix, a :class:`SpanCollector` when
    spans are wanted and no tracer is installed, and ``profile_dir``
    (else the installed one) with a fresh dump list; the event bus is
    kept.  The record is yielded at once, filled as the block runs, and
    the previous sinks are restored on exit.  A block that raises ships nothing:
    only executions that produced a result are adopted, which keeps
    merged totals identical across worker counts."""
    run = current_run()
    previous = _INSTALLED
    collector = SpanCollector() if previous.tracer is None and run.spans else None
    captured = Captured(
        metrics=MetricsRegistry() if run.metrics or previous.metrics is not None else None,
        spans=collector.records if collector is not None else [],
        epoch=collector.epoch if collector is not None else 0.0,
        worker=worker,
    )
    install(
        replace(
            previous,
            tracer=collector if collector is not None else previous.tracer,
            metrics=captured.metrics,
            profile_dir=profile_dir if profile_dir is not None else previous.profile_dir,
            profiles=captured.profiles,
        )
    )
    start = perf_counter()
    try:
        with _metrics.prefix_scope(""):
            yield captured
    finally:
        captured.seconds = perf_counter() - start
        install(previous)


@contextmanager
def experiment_scope(experiment_id: str):
    """One experiment's observability frame: an ``experiment`` span plus
    a metrics namespace, both keyed by the experiment id.

    Entered by :meth:`~repro.engine.registry.ExperimentSpec.run` around
    every driver call; yields the span so the registry can reuse its
    measured duration as ``timings["total"]`` (span data is the only
    timing source).
    """
    with span(experiment_id, kind="experiment") as sp:
        with _metrics.prefix_scope(experiment_id):
            yield sp
