"""OpenMetrics / Prometheus text exposition of the metrics registry.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` document (the
``metrics.json`` shape) as the OpenMetrics text format, so the future
scheduling service is scrape-ready without a client library:

* counters → ``repro_<name>_total{scope="<experiment>"}``,
* gauges → plain samples,
* log2 histograms → cumulative ``_bucket{le=...}`` series (the
  ``"<=2^k"`` bucket labels become ``le="2**k"`` upper bounds) plus
  ``_sum``/``_count``, terminated by the mandatory ``# EOF``.

Two consumers: ``repro stats <run-dir> --format openmetrics`` renders a
finished run's ``metrics.json``, and :class:`MetricsSnapshotter`
refreshes a ``metrics.prom`` file *during* a monitored run (atomic
write-then-rename, so a scraper — or ``cat`` — never sees a torn
exposition).  Rendering reads the registry without locking; the
snapshotter simply skips a frame when a concurrent merge mutates a dict
mid-iteration, which keeps the hot path lock-free.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Any

from repro.obs.events import DegradedWrites
from repro.utils.atomic import atomic_write_text

__all__ = ["MetricsSnapshotter", "SNAPSHOT_FILENAME", "render"]

#: File name of the live exposition snapshot inside a run directory.
SNAPSHOT_FILENAME = "metrics.prom"

_NAME = re.compile(r"[^a-zA-Z0-9_]")
_BUCKET = re.compile(r"^<=2\^(-?\d+)$")


def _metric_name(name: str) -> str:
    base = _NAME.sub("_", name).strip("_")
    return f"repro_{base}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _labels(scope: str) -> str:
    return f'{{scope="{_escape(scope)}"}}'


def _fmt(value: "int | float") -> str:
    if isinstance(value, bool):  # pragma: no cover - counters are numeric
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _bucket_bound(label: str) -> "float | None":
    """The numeric upper bound of a ``"<=2^k"`` bucket label.

    ``"<=0"`` maps to 0, ``"inf"`` to ``None`` (its observations belong
    to the implicit ``+Inf`` bucket only).
    """
    if label == "<=0":
        return 0.0
    match = _BUCKET.match(label)
    if match is None:
        return None
    return float(2.0 ** int(match.group(1)))


def _family(
    doc: "dict[str, Any]", section: str
) -> "dict[str, list[tuple[str, Any]]]":
    """``{metric name: [(scope, value-or-histogram), ...]}`` ordered."""
    families: "dict[str, list[tuple[str, Any]]]" = {}
    for scope, named in (doc.get(section) or {}).items():
        for name, value in named.items():
            families.setdefault(name, []).append((scope, value))
    return dict(sorted(families.items()))


def render(doc: "dict[str, Any]") -> str:
    """The OpenMetrics text exposition of one metrics document."""
    lines: "list[str]" = []
    for name, samples in _family(doc, "counters").items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        for scope, value in samples:
            lines.append(f"{metric}_total{_labels(scope)} {_fmt(value)}")
    for name, samples in _family(doc, "gauges").items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        for scope, value in samples:
            lines.append(f"{metric}{_labels(scope)} {_fmt(value)}")
    for name, samples in _family(doc, "histograms").items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for scope, hist in samples:
            buckets = []
            for label, count in (hist.get("buckets") or {}).items():
                bound = _bucket_bound(str(label))
                if bound is not None:
                    buckets.append((bound, int(count)))
            buckets.sort()
            cumulative = 0
            for bound, count in buckets:
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{scope="{_escape(scope)}",'
                    f'le="{_fmt(bound)}"}} {cumulative}'
                )
            total = int(hist.get("count", 0))
            lines.append(
                f'{metric}_bucket{{scope="{_escape(scope)}",le="+Inf"}} {total}'
            )
            lines.append(f"{metric}_sum{_labels(scope)} {_fmt(hist.get('sum', 0.0))}")
            lines.append(f"{metric}_count{_labels(scope)} {total}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class MetricsSnapshotter:
    """Refreshes a ``metrics.prom`` exposition while a run is live.

    A daemon thread renders the (still-mutating) registry every
    ``interval`` seconds and atomically replaces the snapshot file.
    The registry is read without locks: a frame that races a concurrent
    dict mutation (``RuntimeError``) is skipped — the next tick gets a
    consistent view — and :meth:`stop` always writes one final, exact
    snapshot after the run has quiesced.  Snapshot writes never raise: a
    failed one follows the best-effort writers' policy
    (:class:`~repro.obs.events.DegradedWrites`), counted as
    ``metrics.degraded_writes`` with one warning.
    """

    def __init__(self, registry, path, interval: float = 2.0):
        self.registry = registry
        self.path = Path(path)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="metrics-snapshotter", daemon=True
        )
        self._degraded = DegradedWrites("metrics.degraded_writes", registry)

    def _write(self) -> bool:
        try:
            text = render(self.registry.to_dict())
        except RuntimeError:  # registry mutated mid-render; next tick
            return False
        try:
            atomic_write_text(self.path, text)
        except OSError as exc:
            self._degraded.absorb(
                exc,
                f"cannot write {self.path} ({exc}); continuing without the "
                "live metrics snapshot — results are unaffected",
            )
            return False
        return True

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._write()

    def start(self) -> "MetricsSnapshotter":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop refreshing and write the final exact snapshot."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._write()
