"""Structured event bus — the live feed of a running fleet.

Spans and metrics (PR 5) answer questions *after* a run; the event bus
answers them *while* the run is alive.  Every interesting state change —
task lifecycle, lease grants, re-issues, quarantines, degraded writes,
chaos faults, worker heartbeats — is appended as one JSON line to a
file under ``<runs-root>/events/``::

    <runs-root>/events/run-<host>-<pid>.jsonl      # dispatcher / CLI
    <runs-root>/events/worker-<name>.jsonl         # each repro worker

Each *process* owns exactly one file (append-only, one ``write()`` per
line), so no cross-process interleaving can tear a record; readers
(``repro top``, ``repro tail``) merge the per-source files by the
``ts`` wall-clock field and tolerate a torn final line, exactly like
the doctor's journal readers.  There are no sockets and no server —
any host that mounts the runs root can both write and watch, which is
the same multi-host contract as the dispatch queue itself.

The layer inherits the obs invariants wholesale:

* **Never result bytes.**  Events are diagnostics; nothing reads them
  back into a computation.  Emitting is a no-op unless a bus has been
  installed (two module-global ``None`` checks, like metrics).
* **Never takes the run down.**  A full or read-only filesystem
  degrades event writes to a once-warned counter
  (``events.degraded_writes``), mirroring the journal's ``_degrade``
  from the self-healing work.

Wall-clock timestamps are deliberate: events are *not* trace spans, and
operators correlating a fleet need "when" in human time.  Cross-host
clock skew therefore skews ``repro tail`` ordering at worst — never
correctness, because nothing in the engine consumes event timestamps.
"""

from __future__ import annotations

import json
import os
import socket
import time
import warnings
from pathlib import Path
from typing import Any, TextIO

from repro.obs import metrics as _metrics

__all__ = [
    "EVENTS_DIRNAME",
    "EventBus",
    "Heartbeat",
    "current_bus",
    "current_events_dir",
    "emit",
    "ensure_bus",
    "install",
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
        self._fh: "TextIO | None" = None
        self._seq = 0
        self._degraded = False
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
        try:
            if self._fh is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(doc) + "\n")
            self._fh.flush()
        except OSError as exc:
            self._degrade(exc)
            return
        self.events_written += 1

    def _degrade(self, exc: OSError) -> None:
        """Absorb a failed event write: count it, warn once, carry on.

        Same contract as the journal's degraded checkpoint writes — the
        event feed is diagnostics, never correctness, so exhaustion
        must not take the worker or the dispatcher down.
        """
        self._fh = None  # reopen on the next emit in case space frees up
        _metrics.add("events.degraded_writes")
        if not self._degraded:
            self._degraded = True
            warnings.warn(
                f"cannot append to the event bus at {self.path} ({exc}); "
                "continuing without live events — results are unaffected",
                stacklevel=3,
            )

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


# ---------------------------------------------------------------------------
# Ambient API — mirrors repro.obs.metrics: a module-global sink, a
# fast-path no-op emit, and install/restore for scoping.
# ---------------------------------------------------------------------------

_BUS: "EventBus | None" = None


def install(bus: "EventBus | None") -> "EventBus | None":
    """Install this process's event bus; returns the previous one."""
    global _BUS
    previous = _BUS
    _BUS = bus
    return previous


def current_bus() -> "EventBus | None":
    return _BUS


def current_events_dir() -> "str | None":
    """The installed bus's directory (shipped to workers on the bundle)."""
    return None if _BUS is None else str(_BUS.directory)


def emit(kind: str, **fields: Any) -> None:
    """Emit one event on the installed bus (no-op when none is)."""
    bus = _BUS
    if bus is not None:
        bus.emit(kind, **fields)


def ensure_bus(directory, role: str = "proc") -> EventBus:
    """Idempotently give this process a bus under ``directory``.

    Used by :func:`~repro.engine.backends.base.install_worker_bundle`:
    a dispatch worker that already opened its own named bus (in
    ``worker_loop``) keeps it; a pool worker gets a fresh one keyed by
    its pid.  Re-installing for the same directory is a no-op, so one
    worker serving many queues of one run keeps appending to one file.
    The pid check unmasks *fork inheritance*: a bus installed by
    another process (a forked worker that did not shed it) would
    interleave two processes into one file under one identity — such
    a bus is replaced, never reused.  Pool and local dispatch workers
    drop theirs first (:func:`~repro.engine.backends.base.shed_parent_state`).
    """
    global _BUS
    directory = Path(directory)
    if (
        _BUS is not None
        and _BUS.extra.get("pid") == os.getpid()
        and os.path.abspath(_BUS.directory) == os.path.abspath(directory)
    ):
        return _BUS
    _BUS = EventBus(directory, default_source(role))
    return _BUS


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
