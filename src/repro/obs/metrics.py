"""Metrics registry — counters, gauges, and histograms for one run.

The registry answers "what did the simulation actually do?": samples
drawn, Theorem-1 cache hits, SINR evaluations, executor retries, guard
trips.  Hot kernels report through three module-level functions —
:func:`add` (counter), :func:`set_gauge`, :func:`observe` (histogram) —
whose inactive fast path is two module-global ``None`` checks, so the
instrumentation costs nothing when telemetry is off.

Cross-process collection: the executor pushes a *task buffer* (a private
:class:`MetricsRegistry`) around every task execution, so increments
made inside a task — in whatever worker process it runs — land in the
buffer instead of a sink that does not exist in the worker.  The buffer
is shipped back piggybacked on the task's result and merged into the
main-process registry in task-settle order.  Counters are integer sums
and gauges are keyed last-write-by-task-index, so the merged totals are
identical for every ``--jobs`` value; only wall-clock histograms vary
between runs.

The determinism invariant of the whole layer: collection never draws
randomness, never mutates kernel values, and failed task attempts drop
their buffers (only *successful* executions ship metrics), so enabling
``--metrics`` cannot change any experiment's result bytes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any

__all__ = [
    "MetricsRegistry",
    "add",
    "begin_task",
    "collect_into",
    "collecting",
    "current_registry",
    "end_task",
    "merge_task_metrics",
    "observe",
    "prefix_scope",
    "set_gauge",
]

#: Main-process sink (installed by ``obs_scope``); ``None`` = off.
_REGISTRY: "MetricsRegistry | None" = None
#: Task-local buffer pushed by the executor around each task execution.
_TASK_BUFFER: "MetricsRegistry | None" = None
#: Prefix (experiment id) applied by the main-process sink.
_PREFIX = ""


class MetricsRegistry:
    """One bag of counters, gauges, and histograms.

    Counters are exact integer/float sums; gauges keep the last written
    value; histograms accumulate ``(count, sum, log2 buckets)`` — enough
    to render distributions without storing samples.  All three merge by
    plain addition / last-write, so merging worker deltas in task order
    is deterministic regardless of which process produced them.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: "dict[str, int | float]" = {}
        self.gauges: "dict[str, float]" = {}
        self.histograms: "dict[str, dict[str, Any]]" = {}

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: "int | float" = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = {"count": 0, "sum": 0.0, "buckets": {}}
            self.histograms[name] = hist
        hist["count"] += 1
        hist["sum"] += float(value)
        bucket = _bucket_of(value)
        hist["buckets"][bucket] = hist["buckets"].get(bucket, 0) + 1

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold ``other`` into this registry, optionally namespaced.

        Addition for counters/histograms and last-write for gauges: the
        caller merges deltas in task order, so the outcome is the same
        for every worker count.
        """
        pre = f"{prefix}/" if prefix else ""
        for name, value in other.counters.items():
            key = pre + name
            self.counters[key] = self.counters.get(key, 0) + value
        for name, value in other.gauges.items():
            self.gauges[pre + name] = value
        for name, hist in other.histograms.items():
            key = pre + name
            mine = self.histograms.get(key)
            if mine is None:
                mine = {"count": 0, "sum": 0.0, "buckets": {}}
                self.histograms[key] = mine
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            for bucket, count in hist["buckets"].items():
                mine["buckets"][bucket] = mine["buckets"].get(bucket, 0) + count

    # -- export ------------------------------------------------------------

    def grouped_counters(self) -> "dict[str, dict[str, int | float]]":
        """Counters nested ``{scope: {name: value}}`` with sorted keys.

        The scope is the prefix applied at merge time (the experiment
        id); un-prefixed counters land under ``"run"``.
        """
        return _group(self.counters)

    def to_dict(self) -> "dict[str, Any]":
        """Deterministically ordered JSON document of all metrics."""
        doc: "dict[str, Any]" = {"counters": self.grouped_counters()}
        if self.gauges:
            doc["gauges"] = _group(self.gauges)
        if self.histograms:
            doc["histograms"] = {
                scope: {
                    name: {
                        "count": h["count"],
                        "sum": h["sum"],
                        "buckets": {k: h["buckets"][k] for k in sorted(h["buckets"])},
                    }
                    for name, h in sorted(names.items())
                }
                for scope, names in _group(self.histograms).items()
            }
        return doc

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)


def _group(flat: dict) -> "dict[str, dict]":
    grouped: "dict[str, dict]" = {}
    for key in sorted(flat):
        scope, _, name = key.rpartition("/")
        grouped.setdefault(scope or "run", {})[name] = flat[key]
    return grouped


def _bucket_of(value: float) -> str:
    """Log2 bucket label ``"<=2^k"`` covering ``value`` (seconds etc.)."""
    if value <= 0 or not math.isfinite(value):
        return "<=0" if value <= 0 else "inf"
    return f"<=2^{math.ceil(math.log2(value))}"


# ---------------------------------------------------------------------------
# Module-level ambient API — what the instrumented hot paths call.
# ---------------------------------------------------------------------------


def add(name: str, value: "int | float" = 1) -> None:
    """Increment a counter (no-op when telemetry is off).

    Inside a task execution the increment lands in the task buffer and
    travels back to the main process with the result; outside tasks it
    goes straight to the installed sink under the current prefix.
    """
    buf = _TASK_BUFFER
    if buf is not None:
        buf.add(name, value)
        return
    reg = _REGISTRY
    if reg is not None:
        reg.add(_PREFIX + name if _PREFIX else name, value)


def set_gauge(name: str, value: float) -> None:
    """Record a last-write-wins gauge (no-op when telemetry is off)."""
    buf = _TASK_BUFFER
    if buf is not None:
        buf.set_gauge(name, value)
        return
    reg = _REGISTRY
    if reg is not None:
        reg.set_gauge(_PREFIX + name if _PREFIX else name, value)


def observe(name: str, value: float) -> None:
    """Add one histogram observation (no-op when telemetry is off)."""
    buf = _TASK_BUFFER
    if buf is not None:
        buf.observe(name, value)
        return
    reg = _REGISTRY
    if reg is not None:
        reg.observe(_PREFIX + name if _PREFIX else name, value)


def collecting() -> bool:
    """Whether this process has a sink or task buffer for metrics.

    Workers have neither between tasks; the ``metrics`` switch of the
    shipped run context tells the executor to buffer their tasks."""
    return _REGISTRY is not None or _TASK_BUFFER is not None


def current_registry() -> "MetricsRegistry | None":
    """The installed main-process sink (``None`` when metrics are off)."""
    return _REGISTRY


def install(registry: "MetricsRegistry | None") -> "MetricsRegistry | None":
    """Install the main-process sink; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def collect_into(registry: "MetricsRegistry | None"):
    """Make ``registry`` this process's sink for the block (``None``:
    metrics off), outside any task buffer and prefix.

    A worker that runs a whole experiment (:mod:`repro.engine.suite`)
    collects it here exactly as the main process collects it at
    ``--jobs 1``: counters land under the experiment's scope, and the
    buffers of its own tasks merge on settling.  The previous sink,
    buffer and prefix are restored on exit."""
    global _REGISTRY, _TASK_BUFFER, _PREFIX
    saved = (_REGISTRY, _TASK_BUFFER, _PREFIX)
    _REGISTRY, _TASK_BUFFER, _PREFIX = registry, None, ""
    try:
        yield registry
    finally:
        _REGISTRY, _TASK_BUFFER, _PREFIX = saved


@contextmanager
def prefix_scope(prefix: str):
    """Namespace sink-bound metrics under ``prefix`` (the experiment id)
    for the duration of the block.  Task buffers are unaffected — the
    executor applies the main process's prefix when it merges them."""
    global _PREFIX
    previous = _PREFIX
    _PREFIX = f"{prefix}/" if prefix else ""
    try:
        yield
    finally:
        _PREFIX = previous


# -- executor integration (task buffers) ------------------------------------


def begin_task() -> "MetricsRegistry | None":
    """Push a fresh task buffer; returns the previous one (for nesting).

    Called by the executor at the top of every task execution when
    :func:`collecting` is true, in whatever process runs the task.
    """
    global _TASK_BUFFER
    previous = _TASK_BUFFER
    _TASK_BUFFER = MetricsRegistry()
    return previous


def end_task(previous: "MetricsRegistry | None") -> MetricsRegistry:
    """Pop the task buffer installed by :func:`begin_task`."""
    global _TASK_BUFFER
    buffer = _TASK_BUFFER if _TASK_BUFFER is not None else MetricsRegistry()
    _TASK_BUFFER = previous
    return buffer


def merge_task_metrics(delta: "MetricsRegistry | None") -> None:
    """Merge one task's shipped buffer into the main-process sink under
    the current prefix.  Called at task-settle time, in task order."""
    if delta is None:
        return
    reg = _REGISTRY
    if reg is not None:
        reg.merge(delta, _PREFIX.rstrip("/"))
