"""Hierarchical tracing spans — run → experiment → stage → task.

A span is one timed region of a run.  The ambient stack gives spans
their parents: the CLI opens a ``run`` span, the registry opens one
``experiment`` span per driver call, drivers open ``stage`` spans (via
:class:`StageTimer`), and the executor attaches one ``task`` span per
completed task (timed in whatever process executed it, shipped back as
a duration on the result envelope).

Spans always *measure* — entering one costs two ``perf_counter`` calls
even with tracing off, which is how :class:`StageTimer` (and hence
``--timings`` and ``timings["total"]``) is a rendering of span data
rather than a second timing code path.  Only when a :class:`TraceWriter`
is installed are completed spans also *emitted*, as one JSON line each::

    {"name": "E1", "kind": "experiment", "id": 2, "parent": 1,
     "t0": 0.0012, "dur": 3.41}

``t0`` is seconds since the writer opened (a monotonic offset, not a
wall-clock date), so traces are diffable across machines.  Tracing
writes no randomness and never touches task results; the byte-identity
invariant of ``--jobs`` extends to ``--trace`` on/off by construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.obs.events import JsonLines

__all__ = [
    "Span",
    "SpanCollector",
    "StageTimer",
    "TraceWriter",
    "current_experiment",
    "emit_subtree",
    "install_tracer",
    "span",
]

SPAN_KINDS = ("run", "experiment", "stage", "task")


class Span:
    """One timed region; ``duration`` is valid after the block exits."""

    __slots__ = ("name", "kind", "span_id", "parent_id", "start", "duration", "meta")

    def __init__(
        self,
        name: str,
        kind: str,
        span_id: int,
        parent_id: "int | None",
        meta: "dict[str, Any] | None" = None,
    ):
        if kind not in SPAN_KINDS:
            raise ValueError(f"span kind must be one of {SPAN_KINDS}, got {kind!r}")
        self.name = name
        self.kind = kind
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = perf_counter()
        self.duration = 0.0
        self.meta = meta or {}


class TraceWriter:
    """Streams completed spans to a JSONL file as they close.

    Each line is self-contained, so a killed run keeps every span that
    finished before the crash (the same append-only philosophy as the
    checkpoint journal).  Writes follow the event bus's best-effort
    policy (:class:`~repro.obs.events.JsonLines`): a span that cannot be
    written is dropped and counted as ``trace.degraded_writes``, and
    neither :meth:`emit` nor :meth:`close` raises.
    """

    def __init__(self, path):
        self.path = Path(path)
        open(self.path, "w", encoding="utf-8").close()  # a fresh trace per run
        self._lines: "JsonLines | None" = JsonLines(
            self.path,
            "trace.degraded_writes",
            "continuing without those spans — results are unaffected",
        )
        self.epoch = perf_counter()
        self.spans_written = 0

    def emit(self, sp: Span) -> None:
        if self._lines is None:
            return
        doc: "dict[str, Any]" = {
            "name": sp.name,
            "kind": sp.kind,
            "id": sp.span_id,
            "parent": sp.parent_id,
            "t0": round(sp.start - self.epoch, 6),
            "dur": round(sp.duration, 6),
        }
        if sp.meta:
            doc["meta"] = sp.meta
        if self._lines.write(doc):
            self.spans_written += 1

    def close(self) -> None:
        if self._lines is not None:
            self._lines.close()
            self._lines = None


class SpanCollector:
    """A tracer that *buffers* spans instead of writing them.

    Worker processes (pool and dispatch) have no trace file — the
    writer lives with the dispatching process — but tasks executed in
    them still open spans.  When the run context's ``spans`` switch is
    on, :func:`~repro.engine.backends.base.execute_task` installs a
    collector as this process's tracer for the duration of one task;
    the closed spans accumulate here with start times
    *relative to the collector's epoch*, travel back to the dispatcher
    on the task's result envelope, and :func:`emit_subtree` re-emits
    them into the real trace with fresh ids and cross-process parent
    links.  That is what makes ``--trace`` complete under
    ``--executor dispatch``: every worker's task spans — persisted
    per-attempt in the queue's result files — get stitched into one
    coherent run trace.
    """

    def __init__(self) -> None:
        self.epoch = perf_counter()
        self.records: "list[dict[str, Any]]" = []

    def emit(self, sp: Span) -> None:
        self.records.append(
            {
                "name": sp.name,
                "kind": sp.kind,
                "id": sp.span_id,
                "parent": sp.parent_id,
                "rel": sp.start - self.epoch,
                "dur": sp.duration,
                "meta": sp.meta or {},
            }
        )


_TRACER: "TraceWriter | None" = None
_STACK: "list[Span]" = []
_NEXT_ID = 1


def install_tracer(tracer: "TraceWriter | None") -> "TraceWriter | None":
    """Install the span sink; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def current_tracer() -> "TraceWriter | None":
    return _TRACER


def emit_subtree(records: "list[dict[str, Any]]") -> None:
    """Stitch a worker's collected span subtree into the local trace.

    ``records`` is a :class:`SpanCollector` buffer shipped back on a
    task's result envelope.  Worker-local span ids are remapped through
    this process's id counter (two workers may both have used id 7),
    parentless spans are grafted under the currently open span (the
    stage span, since settling happens inside the driver's stage
    block), and relative times are placed so the subtree *ends* at the
    moment of settling.  No-op untraced.
    """
    global _NEXT_ID
    tracer = _TRACER
    if tracer is None or not records:
        return
    top = _STACK[-1].span_id if _STACK else None
    idmap: "dict[int, int]" = {}
    for rec in records:
        idmap[rec["id"]] = _NEXT_ID
        _NEXT_ID += 1
    end = max(rec["rel"] + rec["dur"] for rec in records)
    base = perf_counter() - end
    for rec in records:
        parent = rec.get("parent")
        sp = Span(
            rec["name"],
            rec["kind"],
            idmap[rec["id"]],
            idmap.get(parent, top) if parent is not None else top,
            dict(rec.get("meta") or {}),
        )
        sp.start = base + rec["rel"]
        sp.duration = rec["dur"]
        tracer.emit(sp)


def current_experiment() -> "str | None":
    """Name of the innermost open ``experiment`` span, if any — the
    namespace profile dumps and task spans report under."""
    for sp in reversed(_STACK):
        if sp.kind == "experiment":
            return sp.name
    return None


def _new_span(name: str, kind: str, meta: "dict[str, Any] | None") -> Span:
    global _NEXT_ID
    parent = _STACK[-1].span_id if _STACK else None
    sp = Span(name, kind, _NEXT_ID, parent, meta)
    _NEXT_ID += 1
    return sp


@contextmanager
def span(name: str, kind: str = "stage", **meta: Any):
    """Open a span for the block; always measures, emits when traced.

    Yields the :class:`Span`; read ``span.duration`` after the block for
    the measured wall-clock seconds (this is the single timing source
    behind :class:`StageTimer` and the registry's ``timings["total"]``).
    """
    sp = _new_span(name, kind, meta or None)
    _STACK.append(sp)
    try:
        yield sp
    finally:
        sp.duration = perf_counter() - sp.start
        _STACK.pop()
        tracer = _TRACER
        if tracer is not None:
            tracer.emit(sp)


class StageTimer:
    """Accumulates per-stage wall-clock timings for an experiment run.

    Since the telemetry layer, each stage *is* a span: the timer opens a
    ``stage`` span (emitted to the trace when one is being written, and
    wrapped in a cProfile dump when ``--profile`` is active) and records
    the span's measured duration — ``--timings`` renders span data, it
    does not time anything itself.

    >>> timer = StageTimer()
    >>> with timer.stage("sweep"):
    ...     pass
    >>> sorted(timer.timings) == ["sweep"]
    True
    """

    def __init__(self) -> None:
        self.timings: "dict[str, float]" = {}

    @contextmanager
    def stage(self, name: str):
        from repro.obs.profile import maybe_profile

        with span(name, kind="stage") as sp, maybe_profile(name):
            yield
        self.timings[name] = self.timings.get(name, 0.0) + sp.duration
