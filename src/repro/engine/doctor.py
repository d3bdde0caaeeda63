"""Run-state doctor — audit (and repair) a runs root after an incident.

An incident — a dispatcher killed before it could close its queue, a
disk filled mid-checkpoint — leaves debris under the runs root: dispatch
queues that no worker will serve again, torn journal records, stage
directories holding indices the current config cannot produce, and runs
whose ``status.json`` never said "complete".  None of that debris is
individually fatal (every reader tolerates it), but it hides real
state: ``repro doctor <runs-root>`` makes it visible, and with
``--repair`` puts it right.

Findings (each a ``{kind, path, detail, repaired}`` record):

``dead-queue``
    A dispatch queue whose dispatcher process (the pid its
    ``manifest.json`` records, or that leads the id of a queue still
    without one) is gone.
    Only the dispatcher's own workers serve a queue, and they exit with
    it, so nothing will ever finish or close it.  Repair: delete the
    queue.
``corrupt-record``
    A journal ``task-*.json`` that fails parsing or its SHA-256
    checksum (a torn write).  Repair: quarantine the file into the run
    directory's ``corrupt/`` folder — the task simply re-runs on
    resume, and the evidence is preserved for forensics.
``index-out-of-range``
    A record whose index exceeds the stage's task count recorded in
    ``status.json`` — the journal was written by a different
    config/scale/seed.  Repair: quarantine into ``corrupt/``.
``incomplete-run``
    A run directory with no ``status.json`` (it never finished) or one
    marked incomplete.  Not repairable by the doctor — resume it with
    ``repro run ... --resume <run-id>``.

Repairs are counted on the ``doctor.repairs`` metric.  The report is a
plain JSON document, so fleet tooling can diff it between sweeps.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any

from repro.obs import metrics as _metrics

__all__ = ["diagnose", "iter_jsonl", "read_json"]

_RECORD_FORMAT = "repro-journal-record"


# -- torn-tolerant readers ---------------------------------------------------
# The doctor audits runs roots that may be *live*: a writer can be
# mid-rename, mid-append, or dead mid-line at any moment.  These two
# readers encode the tolerance policy once — unreadable JSON reads as
# "absent", a torn JSONL tail reads as "not yet written" — and are
# shared by the live views (``repro top`` / ``repro tail``), which watch
# exactly the same in-flight state.


def read_json(path) -> "dict[str, Any] | None":
    """A JSON document, or ``None`` when missing, torn, or garbled."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def iter_jsonl(path) -> "list[dict[str, Any]]":
    """Whole records of a JSONL file; torn or garbled lines (a writer
    died mid-append, or is appending right now) are silently skipped.
    A path that is not a regular file (missing, or a device such as
    ``/dev/zero`` standing in for a full disk) reads as no records,
    rather than being read until memory runs out."""
    records: "list[dict[str, Any]]" = []
    try:
        path = Path(path)
        if not path.is_file():
            return records
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return records
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict):
            records.append(doc)
    return records


def _finding(kind: str, path: Path, detail: str) -> "dict[str, Any]":
    return {"kind": kind, "path": str(path), "detail": detail, "repaired": False}


def _quarantine_record(run_dir: Path, path: Path) -> bool:
    """Move a bad record into ``<run_dir>/corrupt/`` (structure kept)."""
    rel = path.relative_to(run_dir)
    target = run_dir / "corrupt" / rel
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
    except OSError:
        return False
    return True


def _audit_records(
    run_dir: Path, stage_counts: "dict[str, int]", repair: bool
) -> "list[dict[str, Any]]":
    findings: "list[dict[str, Any]]" = []
    stages_dir = run_dir / "stages"
    if not stages_dir.is_dir():
        return findings
    for path in sorted(stages_dir.rglob("task-*.json")):
        problem = None
        doc: "dict[str, Any]" = {}
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc.get("format") != _RECORD_FORMAT:
                raise ValueError("not a journal record")
            payload = base64.b64decode(doc["pickle_b64"])
            if hashlib.sha256(payload).hexdigest() != doc["sha256"]:
                raise ValueError("checksum mismatch")
            int(doc["index"])
        except (OSError, ValueError, KeyError) as exc:
            problem = _finding(
                "corrupt-record", path, f"torn or invalid record ({exc})"
            )
        if problem is None:
            stage = str(doc.get("stage", ""))
            expected = stage_counts.get(stage)
            index = int(doc["index"])
            if expected is not None and not (0 <= index < expected):
                problem = _finding(
                    "index-out-of-range",
                    path,
                    f"index {index} outside stage {stage!r} "
                    f"({expected} task(s)) — written by another config",
                )
        if problem is None:
            continue
        if repair:
            problem["repaired"] = _quarantine_record(run_dir, path)
        findings.append(problem)
    return findings


def _audit_run(run_dir: Path, repair: bool) -> "list[dict[str, Any]]":
    findings: "list[dict[str, Any]]" = []
    status_path = run_dir / "status.json"
    stage_counts: "dict[str, int]" = {}
    if not status_path.is_file():
        findings.append(
            _finding(
                "incomplete-run",
                run_dir,
                "no status.json — the run never finished; resume it with "
                f"--resume {run_dir.name}",
            )
        )
    else:
        try:
            status = json.loads(status_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            status = {}
            findings.append(
                _finding("corrupt-record", status_path, f"unreadable status.json ({exc})")
            )
        stage_counts = {
            str(k): int(v)
            for k, v in (status.get("journal") or {}).get("stages", {}).items()
        }
        if status and not status.get("complete", True):
            findings.append(
                _finding(
                    "incomplete-run",
                    run_dir,
                    "status.json marks the run incomplete; resume it with "
                    f"--resume {run_dir.name}",
                )
            )
    findings.extend(_audit_records(run_dir, stage_counts, repair))
    return findings


def _alive(pid: Any) -> bool:
    """Whether ``pid`` names a process that exists (a pid reused since
    reads as alive, so a live queue is never taken for dead)."""
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # it exists, under another user
    return True


def _audit_queue(qdir: Path, repair: bool) -> "list[dict[str, Any]]":
    # A queue still being published has no manifest yet; its id starts
    # with the dispatcher's pid, so a live one is never taken for dead.
    head = qdir.name.split("-", 1)[0]
    pid = (read_json(qdir / "manifest.json") or {}).get(
        "dispatcher", int(head) if head.isdigit() else None
    )
    if _alive(pid):
        return []
    finding = _finding(
        "dead-queue",
        qdir,
        f"its dispatcher (pid {pid}) is gone; no worker will serve it again",
    )
    if repair:
        shutil.rmtree(qdir, ignore_errors=True)
        finding["repaired"] = not qdir.exists()
    return [finding]


def diagnose(runs_root, *, repair: bool = False) -> "dict[str, Any]":
    """Audit every run directory and dispatch queue under ``runs_root``.

    Returns the machine-readable report: scanned-entity counts, the
    findings (with ``repaired`` flags when ``repair=True``), and the
    repair total (also added to the ``doctor.repairs`` metric).
    """
    root = Path(runs_root)
    findings: "list[dict[str, Any]]" = []
    runs = 0
    queues = 0
    if root.is_dir():
        for run_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            if run_dir.name == "queues":
                continue
            if not (run_dir / "meta.json").is_file():
                continue
            runs += 1
            findings.extend(_audit_run(run_dir, repair))
        queues_root = root / "queues"
        if queues_root.is_dir():
            for qdir in sorted(p for p in queues_root.iterdir() if p.is_dir()):
                queues += 1
                findings.extend(_audit_queue(qdir, repair))
    repairs = sum(1 for f in findings if f["repaired"])
    if repairs:
        _metrics.add("doctor.repairs", repairs)
    return {
        "runs_root": str(root),
        "runs": runs,
        "queues": queues,
        "findings": findings,
        "repairs": repairs,
        "unrepaired": sum(1 for f in findings if not f["repaired"]),
    }
