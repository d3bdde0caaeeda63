"""Metrics registry — counters, gauges, and histograms for one run.

The registry answers "what did the simulation actually do?": samples
drawn, Theorem-1 cache hits, SINR evaluations, executor retries, guard
trips.  Hot kernels report through three module-level functions —
:func:`add` (counter), :func:`set_gauge`, :func:`observe` (histogram) —
whose inactive fast path is one module-global ``None`` check, so the
instrumentation costs nothing when telemetry is off.

Cross-process collection: :func:`repro.obs.capture` installs a fresh
registry as this process's sink around every observed task execution
(and around a whole experiment run on a pool worker), so increments
made inside it — in whatever worker process it runs — land in that
buffer.  The buffer is shipped back on the result and merged into the
run's registry in task-settle order, under the prefix current there.
Counters are integer sums and gauges are keyed last-write-by-task-index,
so the merged totals are identical for every ``--jobs`` value; only
wall-clock histograms vary between runs.

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
    "observe",
    "prefix_scope",
    "set_gauge",
]

#: This process's registry, set by :func:`repro.obs.install` (the run's
#: sink, or a capture's buffer); ``None`` = off.
_REGISTRY: "MetricsRegistry | None" = None
#: Prefix (experiment id) applied to every write.
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
    """Increment a counter under the current prefix (no-op when
    telemetry is off)."""
    reg = _REGISTRY
    if reg is not None:
        reg.add(_PREFIX + name if _PREFIX else name, value)


def set_gauge(name: str, value: float) -> None:
    """Record a last-write-wins gauge (no-op when telemetry is off)."""
    reg = _REGISTRY
    if reg is not None:
        reg.set_gauge(_PREFIX + name if _PREFIX else name, value)


def observe(name: str, value: float) -> None:
    """Add one histogram observation (no-op when telemetry is off)."""
    reg = _REGISTRY
    if reg is not None:
        reg.observe(_PREFIX + name if _PREFIX else name, value)


@contextmanager
def prefix_scope(prefix: str):
    """Namespace metrics under ``prefix`` (the experiment id) for the
    duration of the block; ``""`` clears the namespace, as a capture does
    for its buffer."""
    global _PREFIX
    previous = _PREFIX
    _PREFIX = f"{prefix}/" if prefix else ""
    try:
        yield
    finally:
        _PREFIX = previous
