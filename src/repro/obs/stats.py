"""Render a past run's telemetry — ``repro stats <run-dir>``.

Reads whatever a ``repro run --out DIR`` invocation left behind —
``summary.json`` (checks, timings, fault records), ``metrics.json``
(aggregated counters/gauges/histograms), ``trace.jsonl`` (spans), and
any ``profile-*.pstats`` dumps — and renders one human-readable report.
Pretty-printing past faults lives here too: ``summary.json`` has carried
per-experiment fault metadata since the fault-tolerance work, and this
command is its reader.

Three output shapes since the live-observability work:
``--format human`` (the default report, now with a *fleet* section
summing the dispatch counters and the per-worker task tally stitched
into the trace), ``--format json`` (:func:`stats_doc` — the full
machine-readable document: counters, spans summary, faults, degraded
writes), and ``--format openmetrics`` (the Prometheus text exposition
of ``metrics.json``, rendered by :mod:`repro.obs.openmetrics`).

Everything is file-based and read-only: ``repro stats`` re-runs nothing
and works on any machine the run directory was copied to.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = ["RunDirError", "render_run_dir", "stats_doc"]

#: Failed best-effort writes, one counter per diagnostic sink.
DEGRADED_COUNTERS = (
    "journal.degraded_writes",
    "events.degraded_writes",
    "trace.degraded_writes",
)

#: Counter names summed across scopes into the fleet section.
FLEET_COUNTERS = (
    "executor.dispatch.queues",
    "executor.dispatch.reissues",
    "executor.worker_losses",
    "executor.events.worker-lost",
    "quarantine.tasks",
    *DEGRADED_COUNTERS,
)


class RunDirError(RuntimeError):
    """The directory holds nothing ``repro stats`` can render."""


def _load_json(path: Path) -> "dict[str, Any] | None":
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise RunDirError(f"cannot read {path}: {exc}") from exc


def _load_spans(path: Path) -> "list[dict[str, Any]]":
    if not path.is_file():
        return []
    spans = []
    try:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                spans.append(json.loads(line))
    except (OSError, json.JSONDecodeError) as exc:
        raise RunDirError(f"cannot read {path}: {exc}") from exc
    return spans


def _span_lines(spans: "list[dict[str, Any]]", experiment: str) -> "list[str]":
    """Stage and task lines of one experiment's span subtree."""
    exp = [s for s in spans if s.get("kind") == "experiment" and s.get("name") == experiment]
    if not exp:
        return []
    exp_ids = {s["id"] for s in exp}
    lines = [f"  spans ({sum(s['dur'] for s in exp):.3f}s total):"]
    for stage in (s for s in spans if s.get("parent") in exp_ids):
        if stage.get("kind") == "task":
            continue
        tasks = [
            t for t in spans if t.get("parent") == stage["id"] and t.get("kind") == "task"
        ]
        lines.append(f"    {stage['name']}: {stage['dur']:.3f}s")
        if tasks:
            total = sum(t["dur"] for t in tasks)
            lines.append(
                f"      tasks: {len(tasks)} "
                f"(sum {total:.3f}s, mean {total / len(tasks):.4f}s)"
            )
    return lines


def _fault_lines(entry: "dict[str, Any]") -> "list[str]":
    faults = entry.get("faults") or {}
    if not faults:
        return []
    lines = ["  faults:"]
    for event in faults.get("events", []):
        lines.append(f"    [event] {event.get('kind')}: {event.get('detail')}")
    for failure in faults.get("failures", []):
        lines.append(
            f"    [lost]  task {failure.get('index')} (stage "
            f"{failure.get('stage')!r}) {failure.get('kind')} after "
            f"{failure.get('attempts')} attempt(s): {failure.get('message')}"
        )
    if entry.get("incomplete"):
        lines.append("    result is INCOMPLETE — aggregates exclude lost tasks")
    return lines


def _counter_lines(
    grouped: "dict[str, dict[str, Any]]", scope: str, indent: str = "  "
) -> "list[str]":
    counters = grouped.get(scope)
    if not counters:
        return []
    lines = [f"{indent}counters:"]
    width = max(len(name) for name in counters)
    for name, value in counters.items():
        lines.append(f"{indent}  {name.ljust(width)}  {value}")
    return lines


def _fleet_totals(grouped: "dict[str, dict[str, Any]]") -> "dict[str, int]":
    """Dispatch/fleet counters summed across every scope, zero-dropped."""
    totals: "dict[str, int]" = {}
    for name in FLEET_COUNTERS:
        value = sum(counters.get(name, 0) for counters in grouped.values())
        if value:
            totals[name] = value
    return totals


def _worker_tasks(spans: "list[dict[str, Any]]") -> "dict[str, int]":
    """Tasks per worker, read off the stitched task spans' metadata."""
    tally: "dict[str, int]" = {}
    for sp in spans:
        if sp.get("kind") != "task":
            continue
        worker = (sp.get("meta") or {}).get("worker")
        if worker:
            tally[str(worker)] = tally.get(str(worker), 0) + 1
    return dict(sorted(tally.items()))


def _fleet_lines(
    grouped: "dict[str, dict[str, Any]]", spans: "list[dict[str, Any]]"
) -> "list[str]":
    """The dedicated fleet section: dispatch counters + worker roster."""
    totals = _fleet_totals(grouped)
    workers = _worker_tasks(spans)
    if not totals and not workers:
        return []
    lines = ["", "fleet:"]
    if totals:
        width = max(len(name) for name in totals)
        for name, value in totals.items():
            lines.append(f"  {name.ljust(width)}  {value}")
    if workers:
        roster = ", ".join(f"{w} ({n} tasks)" for w, n in workers.items())
        lines.append(f"  workers: {roster}")
    return lines


def _spans_summary(spans: "list[dict[str, Any]]") -> "dict[str, Any]":
    by_kind: "dict[str, int]" = {}
    for sp in spans:
        kind = str(sp.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
    return {
        "total": len(spans),
        "by_kind": dict(sorted(by_kind.items())),
        "workers": _worker_tasks(spans),
    }


def stats_doc(run_dir) -> "dict[str, Any]":
    """The machine-readable ``repro stats --json`` document.

    Everything the human renderer knows, as one JSON object: run flags
    and status, per-experiment checks/timings/faults, the full counter/
    gauge/histogram document, a spans summary (with the per-worker task
    tally), the fleet totals, and the degraded-write counts.
    """
    base = Path(run_dir)
    summary = _load_json(base / "summary.json")
    metrics = _load_json(base / "metrics.json")
    spans = _load_spans(base / "trace.jsonl")
    profiles = sorted(p.name for p in base.glob("profile-*.pstats"))
    if summary is None and metrics is None and not spans:
        raise RunDirError(
            f"{base} holds no summary.json, metrics.json, or trace.jsonl; "
            "create one with `repro run ... --out DIR [--trace --metrics]`"
        )
    grouped = (metrics or {}).get("counters", {})
    health = (summary or {}).get("journal") or {}
    doc: "dict[str, Any]" = {
        "run_dir": str(base),
        "flags": {
            key: (summary or {}).get(key)
            for key in ("scale", "seed", "jobs", "channel", "executor", "run_id")
        },
        "backend": (summary or {}).get("backend"),
        "passed": (summary or {}).get("passed"),
        "incomplete": bool((summary or {}).get("incomplete")),
        "experiments": (summary or {}).get("experiments", []),
        "metrics": metrics,
        "spans": _spans_summary(spans),
        "fleet": _fleet_totals(grouped),
        "degraded_writes": {
            "journal": int(health.get("degraded_writes", 0) or 0),
            "counted": sum(
                counters.get(name, 0)
                for counters in grouped.values()
                for name in DEGRADED_COUNTERS
            ),
        },
        "profiles": profiles,
    }
    return doc


def render_run_dir(run_dir) -> str:
    """One readable report of everything the run directory recorded."""
    base = Path(run_dir)
    summary = _load_json(base / "summary.json")
    metrics = _load_json(base / "metrics.json")
    spans = _load_spans(base / "trace.jsonl")
    profiles = sorted(p.name for p in base.glob("profile-*.pstats"))
    if summary is None and metrics is None and not spans:
        raise RunDirError(
            f"{base} holds no summary.json, metrics.json, or trace.jsonl; "
            "create one with `repro run ... --out DIR [--trace --metrics]`"
        )

    grouped = (metrics or {}).get("counters", {})
    lines = [f"run directory: {base}"]
    if summary is not None:
        flags = ", ".join(
            f"{key}={summary.get(key)!r}"
            for key in ("scale", "seed", "jobs", "channel", "run_id")
            if summary.get(key) is not None
        )
        lines.append(f"flags: {flags or '(defaults)'}")
        backend_doc = summary.get("backend")
        if isinstance(backend_doc, dict):
            topk = backend_doc.get("topk")
            tail = "dense" if topk is None else f"topk={topk}"
            lines.append(
                "backend: "
                f"{backend_doc.get('backend')}/{backend_doc.get('dtype')}/{tail}"
            )
        status = "PASS" if summary.get("passed") else "FAIL"
        if summary.get("incomplete"):
            status += " (INCOMPLETE)"
        lines.append(f"status: {status}")
        health = summary.get("journal")
        if isinstance(health, dict):
            corrupt = int(health.get("corrupt_records", 0) or 0)
            degraded = int(health.get("degraded_writes", 0) or 0)
            if corrupt:
                lines.append(
                    f"journal: {corrupt} corrupt record(s) skipped on "
                    "resume — those tasks silently re-ran"
                )
            if degraded:
                lines.append(
                    f"journal: {degraded} checkpoint write(s) degraded "
                    "(resource exhaustion) — results correct, resume "
                    "coverage reduced"
                )

    for entry in (summary or {}).get("experiments", []):
        exp_id = str(entry.get("experiment_id"))
        lines.append("")
        verdict = "PASS" if entry.get("passed") else "FAIL"
        lines.append(f"[{exp_id}] {entry.get('title')}  [{verdict}]")
        timings = entry.get("timings") or {}
        if timings:
            rendered = ", ".join(f"{k}={v:.3f}s" for k, v in timings.items())
            lines.append(f"  timings: {rendered}")
        lines.extend(_fault_lines(entry))
        lines.extend(_span_lines(spans, exp_id))
        lines.extend(_counter_lines(grouped, exp_id))

    if summary is None and metrics is not None:
        # Metrics without a summary: render every scope we have.
        for scope in grouped:
            if scope == "run":
                continue
            lines.append("")
            lines.append(f"[{scope}]")
            lines.extend(_counter_lines(grouped, scope))

    lines.extend(_fleet_lines(grouped, spans))

    run_counters = _counter_lines(grouped, "run")
    gauges = (metrics or {}).get("gauges", {})
    hists = (metrics or {}).get("histograms", {})
    if run_counters or spans or profiles or gauges or hists:
        lines.append("")
        lines.append("run totals:")
        lines.extend(_counter_lines(grouped, "run", indent="  "))
        for scope, named in gauges.items():
            for name, value in named.items():
                lines.append(f"  gauge {scope}/{name} = {value}")
        for scope, named in hists.items():
            for name, hist in named.items():
                count = hist.get("count", 0)
                total = hist.get("sum", 0.0)
                mean = total / count if count else 0.0
                lines.append(
                    f"  histogram {scope}/{name}: count={count} "
                    f"sum={total:.4f} mean={mean:.5f}"
                )
        if spans:
            lines.append(f"  trace: {len(spans)} span(s) in trace.jsonl")
        for name in profiles:
            lines.append(f"  profile: {name}")
    return "\n".join(lines)
