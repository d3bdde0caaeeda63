"""Metrics registry — the counters of one run.

The registry answers "what did the simulation actually do?": samples
drawn, Theorem-1 cache hits, SINR evaluations, executor retries, guard
trips.  Hot kernels report through :func:`add`, whose inactive fast
path is one module-global ``None`` check, so the instrumentation costs
nothing when telemetry is off.

Cross-process collection: :func:`repro.obs.capture` installs a fresh
registry as this process's sink around every observed task execution
(and around a whole experiment run on a pool worker), so increments
made inside it — in whatever worker process it runs — land in that
buffer.  The buffer is shipped back on the result and merged into the
run's registry in task-settle order, under the prefix current there.
Counters are exact sums of what the computation did, so ``metrics.json``
has the same bytes for every ``--jobs`` value (dispatch runs add the
``executor.dispatch.queues`` counter).

The determinism invariant of the whole layer: collection never draws
randomness, never mutates kernel values, and failed task attempts drop
their buffers (only *successful* executions ship metrics), so enabling
``--metrics`` cannot change any experiment's result bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

__all__ = ["MetricsRegistry", "add", "prefix_scope"]

#: This process's registry, set by :func:`repro.obs.install` (the run's
#: sink, or a capture's buffer); ``None`` = off.
_REGISTRY: "MetricsRegistry | None" = None
#: Prefix (experiment id) applied to every write.
_PREFIX = ""


class MetricsRegistry:
    """One bag of counters: exact integer/float sums, keyed
    ``<scope>/<name>``.  Merging is plain addition, so merging worker
    deltas in task order gives the same totals whichever process
    produced them."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: "dict[str, int | float]" = {}

    def add(self, name: str, value: "int | float" = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Add ``other``'s counters into this registry, optionally
        namespaced under ``prefix``."""
        pre = f"{prefix}/" if prefix else ""
        for name, value in other.counters.items():
            key = pre + name
            self.counters[key] = self.counters.get(key, 0) + value

    def grouped_counters(self) -> "dict[str, dict[str, int | float]]":
        """Counters nested ``{scope: {name: value}}`` with sorted keys.

        The scope is the prefix applied at merge time (the experiment
        id); un-prefixed counters land under ``"run"``.
        """
        grouped: "dict[str, dict[str, int | float]]" = {}
        for key in sorted(self.counters):
            scope, _, name = key.rpartition("/")
            grouped.setdefault(scope or "run", {})[name] = self.counters[key]
        return grouped

    def to_dict(self) -> "dict[str, Any]":
        """The ``metrics.json`` document: ``{"counters": {scope: {name: value}}}``."""
        return {"counters": self.grouped_counters()}

    def __bool__(self) -> bool:
        return bool(self.counters)


def add(name: str, value: "int | float" = 1) -> None:
    """Increment a counter under the current prefix (no-op when
    telemetry is off)."""
    reg = _REGISTRY
    if reg is not None:
        reg.add(_PREFIX + name if _PREFIX else name, value)


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
