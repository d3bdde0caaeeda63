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

Both renderings come from one document: the human report formats what
:func:`stats_doc` read.  Everything is file-based and read-only:
``repro stats`` re-runs nothing and works on any machine the run
directory was copied to.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.backend.config import BackendConfig

__all__ = ["RunDirError", "render_run_dir", "stats_doc"]

#: The run flags both renderings list, in order (``summary.json`` keys).
FLAGS = ("scale", "seed", "jobs", "channel", "executor", "guards", "run_id")

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


def _experiment_spans(spans: "list[dict[str, Any]]", experiment: str) -> "dict[str, Any]":
    """Total seconds and per-stage task tallies of one experiment's span subtree."""
    exp = [s for s in spans if s.get("kind") == "experiment" and s.get("name") == experiment]
    exp_ids = {s["id"] for s in exp}
    stages = []
    for stage in (s for s in spans if s.get("parent") in exp_ids):
        if stage.get("kind") == "task":
            continue
        tasks = [
            t["dur"] for t in spans if t.get("parent") == stage["id"] and t.get("kind") == "task"
        ]
        stages.append(
            {"name": stage["name"], "seconds": stage["dur"], "tasks": len(tasks),
             "task_seconds": sum(tasks)}
        )
    return {"seconds": sum(s["dur"] for s in exp), "stages": stages}


def _span_lines(summary: "dict[str, Any] | None") -> "list[str]":
    """Stage and task lines of one experiment's span summary."""
    if summary is None:
        return []
    lines = [f"  spans ({summary['seconds']:.3f}s total):"]
    for stage in summary["stages"]:
        lines.append(f"    {stage['name']}: {stage['seconds']:.3f}s")
        if stage["tasks"]:
            total, count = stage["task_seconds"], stage["tasks"]
            lines.append(
                f"      tasks: {count} (sum {total:.3f}s, mean {total / count:.4f}s)"
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


def _fleet_lines(totals: "dict[str, int]", workers: "dict[str, int]") -> "list[str]":
    """The dedicated fleet section: dispatch counters + worker roster."""
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
    experiments = dict.fromkeys(
        sp.get("name") for sp in spans if sp.get("kind") == "experiment"
    )
    return {
        "total": len(spans),
        "by_kind": dict(sorted(by_kind.items())),
        "workers": _worker_tasks(spans),
        "experiments": {name: _experiment_spans(spans, name) for name in experiments},
    }


def stats_doc(run_dir) -> "dict[str, Any]":
    """The machine-readable ``repro stats --json`` document.

    Everything the human renderer shows, as one JSON object: run flags
    (``None`` without a ``summary.json``) and status, journal health,
    per-experiment checks/timings/faults, the full counter/gauge/
    histogram document, a spans summary (with the per-worker task tally
    and each experiment's stages), the fleet totals, and the
    degraded-write counts.
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
    run = summary or {}
    health = run.get("journal") or {}
    return {
        "run_dir": str(base),
        "flags": None if summary is None else {key: run.get(key) for key in FLAGS},
        "backend": run.get("backend"),
        "passed": run.get("passed"),
        "incomplete": bool(run.get("incomplete")),
        "journal": run.get("journal"),
        "experiments": run.get("experiments", []),
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


def render_run_dir(run_dir) -> str:
    """One readable report of everything the run directory recorded."""
    doc = stats_doc(run_dir)
    metrics = doc["metrics"] or {}
    grouped = metrics.get("counters", {})
    spans = doc["spans"]
    lines = [f"run directory: {doc['run_dir']}"]
    if doc["flags"] is not None:
        flags = ", ".join(
            f"{key}={value!r}" for key, value in doc["flags"].items() if value is not None
        )
        lines.append(f"flags: {flags or '(defaults)'}")
        if isinstance(doc["backend"], dict):
            lines.append(f"backend: {BackendConfig.from_dict(doc['backend']).describe()}")
        status = "PASS" if doc["passed"] else "FAIL"
        if doc["incomplete"]:
            status += " (INCOMPLETE)"
        lines.append(f"status: {status}")
        health = doc["journal"]
        if isinstance(health, dict):
            corrupt = int(health.get("corrupt_records", 0) or 0)
            degraded = doc["degraded_writes"]["journal"]
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

    for entry in doc["experiments"]:
        exp_id = str(entry.get("experiment_id"))
        lines.append("")
        verdict = "PASS" if entry.get("passed") else "FAIL"
        lines.append(f"[{exp_id}] {entry.get('title')}  [{verdict}]")
        timings = entry.get("timings") or {}
        if timings:
            rendered = ", ".join(f"{k}={v:.3f}s" for k, v in timings.items())
            lines.append(f"  timings: {rendered}")
        lines.extend(_fault_lines(entry))
        lines.extend(_span_lines(spans["experiments"].get(exp_id)))
        lines.extend(_counter_lines(grouped, exp_id))

    if doc["flags"] is None and doc["metrics"] is not None:
        # Metrics without a summary: render every scope we have.
        for scope in grouped:
            if scope == "run":
                continue
            lines.append("")
            lines.append(f"[{scope}]")
            lines.extend(_counter_lines(grouped, scope))

    lines.extend(_fleet_lines(doc["fleet"], spans["workers"]))

    run_counters = _counter_lines(grouped, "run")
    gauges = metrics.get("gauges", {})
    hists = metrics.get("histograms", {})
    if run_counters or spans["total"] or doc["profiles"] or gauges or hists:
        lines.append("")
        lines.append("run totals:")
        lines.extend(run_counters)
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
        if spans["total"]:
            lines.append(f"  trace: {spans['total']} span(s) in trace.jsonl")
        for name in doc["profiles"]:
            lines.append(f"  profile: {name}")
    return "\n".join(lines)
