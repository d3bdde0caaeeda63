"""Structured event bus — the live feed of a running fleet.

Spans and metrics (PR 5) answer questions *after* a run; the event bus
answers them *while* the run is alive.  Every interesting state change —
task lifecycle, re-issues, quarantines, degraded writes, chaos faults,
worker heartbeats — is appended as one JSON line to a file under
``<runs-root>/events/``::

    <runs-root>/events/run-<host>-<pid>.jsonl      # dispatcher / CLI
    <runs-root>/events/worker-<name>.jsonl         # each dispatch worker
    <runs-root>/events/worker-<host>-<pid>.jsonl   # each pool worker

Each *process* owns exactly one file (append-only, one ``write()`` per
line), so no cross-process interleaving can tear a record; readers
(``repro top``, ``repro tail``) merge the per-source files by the
``ts`` wall-clock field and tolerate a torn final line, exactly like
the doctor's journal readers.  There are no sockets and no server:
every process of a run writes, and any process can watch, through the
files alone.

The layer inherits the obs invariants wholesale:

* **Never result bytes.**  Events are diagnostics; nothing reads them
  back into a computation.  Emitting is a no-op unless a bus has been
  installed (one module-global ``None`` check, like metrics).
* **Never takes the run down.**  A full or read-only filesystem
  degrades event writes to a once-warned counter
  (``events.degraded_writes``), the same :class:`DegradedWrites` policy
  the trace writer, the journal and the ``metrics.prom`` snapshot
  follow.

Wall-clock timestamps are deliberate: events are *not* trace spans, and
an operator reading ``repro tail`` needs "when" in human time.  Nothing
in the engine consumes event timestamps.
"""

from __future__ import annotations

import json
import os
import socket
import time
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Any, TextIO

from repro.obs import metrics as _metrics
from repro.utils.atomic import exhaustion_kind

__all__ = [
    "EVENTS_DIRNAME",
    "DegradedWrites",
    "EventBus",
    "Heartbeat",
    "JsonLines",
    "emit",
    "ensure_bus",
    "rss_bytes",
]

#: Directory under the runs root holding the per-source event files.
EVENTS_DIRNAME = "events"

#: Default seconds between heartbeat events.
DEFAULT_HEARTBEAT_PERIOD = 2.0


def default_source(role: str) -> str:
    """Event-file identity of this process: ``<role>-<host>-<pid>``."""
    return f"{role}-{socket.gethostname()}-{os.getpid()}"


def rss_bytes() -> "int | None":
    """This process's resident set size, best effort (``None`` unknown).

    Reads ``/proc/self/statm`` where it exists; falls back to
    ``resource.getrusage`` peak RSS.  Pure diagnostics for heartbeats —
    callers must tolerate ``None`` (e.g. on exotic platforms).
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak_kb) * 1024
    except Exception:
        return None


class DegradedWrites:
    """The degraded-write policy of every best-effort writer: a failed
    write is counted under ``counter`` and the first one warns.

    Diagnostics and checkpoints are never correctness, so a full or
    read-only filesystem must not take a run, a worker or the dispatcher
    down; ``repro stats`` sums the counters.  A write that names
    ``what`` it lost also emits a ``degraded-write`` event — the journal
    does; the event bus's own file never does, so a failing
    bus does not write about itself.  A writer on a thread of its own
    passes the ``registry`` it serves: the installed one follows what
    the main thread runs (an experiment's prefix, a task's capture).
    """

    def __init__(self, counter: str, registry: "_metrics.MetricsRegistry | None" = None):
        self.counter = counter
        self.registry = registry
        #: Failed writes absorbed so far.
        self.count = 0
        self._warned = False

    def absorb(
        self,
        exc: OSError,
        message: str,
        *,
        what: "str | None" = None,
        stacklevel: int = 1,
    ) -> None:
        """Count one failed write, emit its event, and warn ``message``
        if it is the first; ``stacklevel`` counts from the caller, as
        for :func:`warnings.warn`."""
        self.count += 1
        if self.registry is not None:
            self.registry.add(self.counter)
        else:
            _metrics.add(self.counter)
        if what is not None:
            emit("degraded-write", what=what, cause=exhaustion_kind(exc) or "write-error")
        if not self._warned:
            self._warned = True
            warnings.warn(message, stacklevel=stacklevel + 1)


class JsonLines:
    """An append-only JSON-lines file written best effort — the write
    path of the diagnostic sinks (the event bus and the trace writer).

    Each line is flushed as it is written.  A failed open or write never
    raises: the line is dropped and absorbed by :class:`DegradedWrites`
    under ``counter``, and the next line reopens the file for appending
    (in case space frees up), so nothing already written is truncated.
    """

    def __init__(self, path: Path, counter: str, consequence: str):
        self.path = path
        self.consequence = consequence
        self._fh: "TextIO | None" = None
        self._degraded = DegradedWrites(counter)

    def write(self, doc: "dict[str, Any]") -> bool:
        """Append one line; whether it was written."""
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(doc) + "\n")
            self._fh.flush()
            return True
        except OSError as exc:
            self.close()  # drops the unwritten buffer
            self._degraded.absorb(
                exc,
                f"cannot append to {self.path} ({exc}); {self.consequence}",
                stacklevel=4,  # the caller of the sink's emit
            )
            return False

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass  # only a failed line was left unflushed


class EventBus:
    """Appends structured events to this process's JSONL file.

    One bus per process, one file per bus.  The file opens lazily on the
    first emit (so merely *constructing* a bus for a run that never
    events costs nothing) and every line is flushed immediately — a
    SIGKILLed worker keeps every event it managed to write, the same
    append-only philosophy as the trace writer and the journal.
    """

    def __init__(self, directory, source: str, extra: "dict[str, Any] | None" = None):
        self.directory = Path(directory)
        self.source = source
        self.path = self.directory / f"{source}.jsonl"
        #: Fields stamped onto every event (host/pid by default).
        self.extra: "dict[str, Any]" = {
            "host": socket.gethostname(),
            "pid": os.getpid(),
        }
        if extra:
            self.extra.update(extra)
        self._lines = JsonLines(
            self.path,
            "events.degraded_writes",
            "continuing without live events — results are unaffected",
        )
        self._seq = 0
        self.events_written = 0

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event; best effort under resource exhaustion."""
        self._seq += 1
        doc: "dict[str, Any]" = {
            "ts": round(time.time(), 3),
            "seq": self._seq,
            "src": self.source,
            "kind": kind,
        }
        doc.update(self.extra)
        for key, value in fields.items():
            if value is not None:
                doc[key] = value
        if self._lines.write(doc):
            self.events_written += 1

    def close(self) -> None:
        self._lines.close()


# ---------------------------------------------------------------------------
# Ambient API — mirrors repro.obs.metrics: a module-global sink set by
# repro.obs.install, and a fast-path no-op emit.
# ---------------------------------------------------------------------------

_BUS: "EventBus | None" = None


def emit(kind: str, **fields: Any) -> None:
    """Emit one event on the installed bus (no-op when none is)."""
    bus = _BUS
    if bus is not None:
        bus.emit(kind, **fields)


def ensure_bus(directory, role: str = "proc") -> EventBus:
    """Idempotently give this process a bus under ``directory``.

    Used by :func:`~repro.engine.backends.base.adopt_run`:
    a dispatch worker that already opened its own named bus keeps it; a
    pool worker gets a fresh one keyed by its pid.  Re-installing for
    the same directory is a no-op, so one worker serving many queues of
    one run keeps appending to one file.
    The pid check unmasks *fork inheritance*: a bus installed by
    another process (a forked worker that did not shed it) would
    interleave two processes into one file under one identity — such
    a bus is replaced, never reused.  Pool and local dispatch workers
    drop theirs first (:func:`repro.obs.shed`).
    """
    from repro import obs

    directory = Path(directory)
    bus = _BUS
    if (
        bus is not None
        and bus.extra.get("pid") == os.getpid()
        and os.path.abspath(bus.directory) == os.path.abspath(directory)
    ):
        return bus
    bus = EventBus(directory, default_source(role))
    obs.install(replace(obs.current(), events=bus))
    return bus


class Heartbeat:
    """Periodic liveness events carrying host/pid/RSS/tasks-per-second.

    Call :meth:`beat` from the owner's main loop (dispatcher poll loop,
    worker scan loop); it emits at most once per ``period`` and derives
    the task rate from the task-count delta since the previous beat.
    A zero or negative period disables the heartbeat entirely.
    """

    def __init__(self, role: str, period: float = DEFAULT_HEARTBEAT_PERIOD):
        self.role = role
        self.period = float(period)
        self._last_beat: "float | None" = None
        self._last_tasks = 0

    def beat(self, tasks: int = 0, **fields: Any) -> bool:
        """Emit a heartbeat if one is due; returns whether it fired."""
        if self.period <= 0 or _BUS is None:
            return False
        now = time.monotonic()
        if self._last_beat is not None and now - self._last_beat < self.period:
            return False
        if self._last_beat is None:
            tps = 0.0
        else:
            tps = (tasks - self._last_tasks) / max(now - self._last_beat, 1e-9)
        self._last_beat = now
        self._last_tasks = tasks
        emit(
            "heartbeat",
            role=self.role,
            tasks=int(tasks),
            tps=round(tps, 3),
            rss=rss_bytes(),
            **fields,
        )
        return True
