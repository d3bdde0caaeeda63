"""Live fleet views — ``repro top <runs-root>`` and ``repro tail``.

Both commands watch a runs root the way the rest of the engine does:
**files only**.  They merge the per-process event files under
``<runs-root>/events/`` (written by :mod:`repro.obs.events`), peek at
open dispatch-queue directories, and render — no sockets, no server,
and nothing shared with the run but its directory.

``repro top`` is the refreshing dashboard: per-stage progress bars with
task rates and ETAs, per-worker health (host/pid/RSS/tasks-per-second
from heartbeats, with stale-heartbeat warnings), open queue depths, dead
queues (judged by ``repro doctor``'s rule: the dispatcher is gone), and
event-counter deltas between frames.  ``repro tail`` is the raw feed:
the merged event stream, one human-formatted line per event, with
``--follow`` streaming new events as they append.

Torn-line tolerance is inherited, not reimplemented: both views read
through :func:`repro.engine.doctor.iter_jsonl` /
:func:`~repro.engine.journal.read_json` — the doctor's readers — so a
worker SIGKILLed mid-append, or a dispatcher appending *right now*,
never crashes the view; the torn tail line simply appears on the next
refresh once it is whole.  Reading is strictly passive: the views never
write into the runs root and can never affect result bytes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any

from repro.engine.doctor import dispatcher_pid, is_alive, iter_jsonl
from repro.engine.journal import read_json
from repro.obs.events import EVENTS_DIRNAME

__all__ = ["collect_state", "render_event_line", "render_top", "tail", "top"]

#: Seconds of heartbeat silence before ``repro top`` flags a worker.
DEFAULT_STALE_AFTER = 10.0

#: Event kinds surfaced in the incidents pane, newest last.
_INCIDENT_KINDS = (
    "worker-lost",
    "reissue",
    "quarantined",
    "timeout",
    "degraded-serial",
    "degraded-write",
    "chaos-fault",
    "pool-broken",
    "task-failed",
)

_MAX_INCIDENTS = 8


def load_events(root) -> "list[dict[str, Any]]":
    """Every whole event under ``<root>/events/``, merged by time.

    Per-source files are internally ordered; the merge sorts by the
    wall-clock ``ts`` (ties broken by source and sequence), which is
    exactly as good as the fleet's clocks — fine for a view, and never
    consumed by the engine itself.
    """
    events_dir = Path(root) / EVENTS_DIRNAME
    records: "list[dict[str, Any]]" = []
    try:
        files = sorted(events_dir.glob("*.jsonl"))
    except OSError:
        return records
    for path in files:
        records.extend(iter_jsonl(path))
    records.sort(key=lambda e: (e.get("ts", 0.0), str(e.get("src")), e.get("seq", 0)))
    return records


def _stage_key(event: "dict[str, Any]") -> str:
    stage = str(event.get("stage", "?"))
    experiment = event.get("experiment")
    return f"{experiment}/{stage}" if experiment else stage


def collect_state(root, *, now: "float | None" = None) -> "dict[str, Any]":
    """Fold the event stream (plus queue directories) into the live
    state ``render_top`` draws: stages, workers, queues, counts,
    incidents.  Pure function of the files — call it once per frame."""
    root = Path(root)
    events = load_events(root)
    now = time.time() if now is None else now
    stages: "dict[str, dict[str, Any]]" = {}
    workers: "dict[str, dict[str, Any]]" = {}
    counts: "dict[str, int]" = {}
    incidents: "list[dict[str, Any]]" = []

    for event in events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
        ts = float(event.get("ts", 0.0))
        if kind == "stage-start":
            key = _stage_key(event)
            stages[key] = {
                "total": int(event.get("tasks", 0)),
                "pending": int(event.get("pending", 0)),
                "replayed": int(event.get("replayed", 0)),
                "backend": event.get("backend"),
                "start_ts": ts,
                "last_ts": ts,
                "done": 0,
                "failed": 0,
                "finished": None,
            }
        elif kind in ("task-done", "task-failed"):
            info = stages.get(_stage_key(event))
            if info is not None:
                info["done" if kind == "task-done" else "failed"] += 1
                info["last_ts"] = ts
        elif kind == "stage-done":
            info = stages.get(_stage_key(event))
            if info is not None:
                info["finished"] = ts
        elif kind == "heartbeat":
            src = str(event.get("src", "?"))
            info = workers.setdefault(src, {"first_ts": ts})
            info.update(
                role=event.get("role"),
                host=event.get("host"),
                pid=event.get("pid"),
                rss=event.get("rss"),
                tasks=event.get("tasks", 0),
                tps=event.get("tps", 0.0),
                last_ts=ts,
            )
        elif kind == "worker-start":
            src = str(event.get("src", "?"))
            workers.setdefault(src, {"first_ts": ts}).update(
                role="worker", host=event.get("host"), pid=event.get("pid"),
                last_ts=ts,
            )
        elif kind == "worker-exit":
            src = str(event.get("src", "?"))
            workers.setdefault(src, {"first_ts": ts}).update(
                exited=True, last_ts=ts, tasks=event.get("tasks", 0)
            )
        if kind in _INCIDENT_KINDS:
            incidents.append(event)

    queues: "list[dict[str, Any]]" = []
    queues_root = root / "queues"
    if queues_root.is_dir():
        for qdir in sorted(p for p in queues_root.iterdir() if p.is_dir()):
            manifest = read_json(qdir / "manifest.json") or {}
            alive = is_alive(dispatcher_pid(qdir, manifest))

            def _count(sub: str, q: Path = qdir) -> int:
                try:
                    return sum(1 for _ in (q / sub).iterdir())
                except OSError:
                    return 0

            queues.append(
                {
                    "queue": qdir.name,
                    "stage": manifest.get("stage"),
                    "status": manifest.get("status", "?") if alive else "dead",
                    "tasks": manifest.get("tasks"),
                    "todo": _count("todo"),
                    "claimed": _count("claimed"),
                    "results": _count("results"),
                }
            )

    return {
        "root": str(root),
        "now": now,
        "events": len(events),
        "sources": len({str(e.get("src")) for e in events}),
        "stages": stages,
        "workers": workers,
        "counts": counts,
        "incidents": incidents[-_MAX_INCIDENTS:],
        "queues": queues,
    }


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _fmt_clock(ts: float) -> str:
    return time.strftime("%H:%M:%S", time.localtime(ts))


def _fmt_ago(now: float, ts: "float | None") -> str:
    if ts is None:
        return "never"
    return f"{max(0.0, now - ts):.1f}s ago"


def _fmt_bytes(n: "int | None") -> str:
    if n is None:
        return "?"
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or unit == "TB":
            return f"{value:.0f}{unit}"
        value /= 1024
    return f"{value:.0f}TB"


def _bar(fraction: float, width: int = 18) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _stage_line(key: str, info: "dict[str, Any]") -> str:
    total = max(1, info["total"])
    resolved = info["replayed"] + info["done"] + info["failed"]
    fraction = resolved / total
    elapsed = max(info["last_ts"] - info["start_ts"], 1e-9)
    rate = info["done"] / elapsed if info["done"] else 0.0
    if info["finished"] is not None:
        tail = f"done in {info['finished'] - info['start_ts']:.1f}s"
    elif rate > 0:
        remaining = info["total"] - resolved
        tail = f"{rate:.1f} tasks/s  eta {remaining / rate:.0f}s"
    else:
        tail = "waiting for first task"
    line = (
        f"  {key:<24} {_bar(fraction)} {resolved:>4}/{info['total']:<4}"
        f" {fraction * 100:3.0f}%  {tail}"
    )
    if info["failed"]:
        line += f"  ({info['failed']} failed)"
    return line


def _worker_line(now: float, stale_after: float, src: str,
                 info: "dict[str, Any]") -> str:
    last = info.get("last_ts")
    bits = [f"  {src:<28}"]
    host, pid = info.get("host"), info.get("pid")
    if host is not None:
        bits.append(f"{host}:{pid}")
    if info.get("rss") is not None:
        bits.append(f"rss={_fmt_bytes(info.get('rss'))}")
    bits.append(f"{int(info.get('tasks', 0) or 0)} tasks")
    if info.get("tps"):
        bits.append(f"{info['tps']:.1f}/s")
    bits.append(f"beat {_fmt_ago(now, last)}")
    if info.get("exited"):
        bits.append("exited")
    elif last is not None and now - last > stale_after:
        bits.append(f"STALE (> {stale_after:g}s)")
    return "  ".join(bits)


def render_event_line(event: "dict[str, Any]") -> str:
    """One ``repro tail`` line: time, source, kind, then the fields."""
    skip = {"ts", "seq", "src", "kind", "host", "pid"}
    fields = " ".join(
        f"{k}={event[k]}" for k in event if k not in skip
    )
    ts = float(event.get("ts", 0.0))
    return (
        f"{_fmt_clock(ts)} {str(event.get('src', '?')):<28} "
        f"{str(event.get('kind', '?')):<14} {fields}".rstrip()
    )


def render_top(
    state: "dict[str, Any]",
    *,
    stale_after: float = DEFAULT_STALE_AFTER,
    prev_counts: "dict[str, int] | None" = None,
) -> str:
    """Draw one ``repro top`` frame from a :func:`collect_state` dict."""
    now = state["now"]
    lines = [
        f"repro top — {state['root']}  ({_fmt_clock(now)}; "
        f"{state['events']} event(s) from {state['sources']} source(s))"
    ]

    if state["stages"]:
        lines.append("")
        lines.append("stages:")
        lines.extend(_stage_line(k, v) for k, v in state["stages"].items())

    if state["workers"]:
        lines.append("")
        lines.append("workers:")
        for src in sorted(state["workers"]):
            lines.append(_worker_line(now, stale_after, src,
                                      state["workers"][src]))

    open_queues = [q for q in state["queues"] if q["status"] == "open"]
    dead_queues = [q for q in state["queues"] if q["status"] == "dead"]
    if open_queues or dead_queues:
        lines.append("")
        dead = f", {len(dead_queues)} dead" if dead_queues else ""
        lines.append(f"queues: {len(open_queues)} open{dead}")
        for q in open_queues + dead_queues:
            lines.append(
                f"  {q['queue']:<36} stage={q['stage']}  todo={q['todo']} "
                f"claimed={q['claimed']} results={q['results']}"
                + ("  DEAD" if q["status"] == "dead" else "")
            )
        if dead_queues:
            lines.append(
                "  DEAD queues lost their dispatcher and no worker will serve "
                f"them again; `repro doctor {state['root']} --repair` removes them"
            )

    if state["counts"]:
        lines.append("")
        delta = ""
        if prev_counts is not None:
            new = sum(state["counts"].values()) - sum(prev_counts.values())
            delta = f"  (+{new} since last frame)" if new else "  (idle)"
        rendered = " ".join(
            f"{k}={state['counts'][k]}" for k in sorted(state["counts"])
        )
        lines.append(f"events: {rendered}{delta}")
    else:
        lines.append("")
        lines.append(
            "events: none yet — monitored runs (repro run --monitor) and "
            "their workers write the bus"
        )

    if state["incidents"]:
        lines.append("")
        lines.append("incidents:")
        for event in state["incidents"]:
            lines.append("  " + render_event_line(event))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command bodies (imported lazily by the CLI).
# ---------------------------------------------------------------------------


def top(
    root,
    *,
    once: bool = False,
    interval: float = 2.0,
    stale_after: float = DEFAULT_STALE_AFTER,
) -> int:
    """Body of ``repro top``: render frames until interrupted."""
    root = Path(root)
    if not root.is_dir():
        print(f"repro top: no runs root at {root}", file=sys.stderr)
        return 1
    prev_counts: "dict[str, int] | None" = None
    while True:
        state = collect_state(root)
        frame = render_top(state, stale_after=stale_after,
                           prev_counts=prev_counts)
        if once:
            print(frame)
            return 0
        # ANSI clear + home, like any terminal dashboard.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        prev_counts = state["counts"]
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def tail(
    root,
    *,
    follow: bool = False,
    interval: float = 0.5,
) -> int:
    """Body of ``repro tail``: print the merged event stream.

    ``--follow`` re-reads the per-source files each poll and prints only
    records beyond the per-file counts already seen — torn tail lines
    are skipped by the reader and picked up whole on a later poll.
    """
    root = Path(root)
    if not root.is_dir():
        print(f"repro tail: no runs root at {root}", file=sys.stderr)
        return 1
    events_dir = root / EVENTS_DIRNAME
    seen: "dict[str, int]" = {}

    def _emit_new() -> None:
        try:
            files = sorted(events_dir.glob("*.jsonl"))
        except OSError:
            return
        fresh: "list[dict[str, Any]]" = []
        for path in files:
            records = iter_jsonl(path)
            start = seen.get(path.name, 0)
            fresh.extend(records[start:])
            seen[path.name] = len(records)
        fresh.sort(
            key=lambda e: (e.get("ts", 0.0), str(e.get("src")), e.get("seq", 0))
        )
        for event in fresh:
            print(render_event_line(event))

    _emit_new()
    if not follow:
        return 0
    while True:
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
        _emit_new()
        sys.stdout.flush()
