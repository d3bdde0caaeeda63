"""Checkpoint journal — incremental, resumable task-result storage.

A journaled run writes every completed task's result to its run
directory the moment it finishes, so a crash, kill, or power loss
forfeits at most the tasks in flight.  ``repro run E13 --resume RUN_ID``
re-opens the journal, replays the recorded results, and executes only
the missing tasks — and because every task owns its randomness (seeds
live on tasks, never on workers), the resumed aggregate is bit-identical
to an uninterrupted run at any ``--jobs`` value.

Layout of one run directory (``<runs_root>/<run_id>/``)::

    meta.json                       # flags the run was created with
    status.json                     # completeness marker + fault records
    stages/<ns>/<stage>/task-00007.json   # one record per completed task

Each record file is written atomically (temp file + ``os.replace``) and
carries a SHA-256 checksum of its pickled payload; a torn or corrupted
record fails verification on load and is simply treated as missing —
the task re-runs, and determinism repairs the damage.  Records are
keyed by task index within a namespaced stage (namespace = experiment
id, stage = the driver's ``map_tasks`` stage name), which is what makes
the journal valid only for the exact sweep shape it was created with;
:meth:`RunJournal.load_stage` rejects records beyond the current task
count rather than silently mixing two configurations.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import re
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine import chaos
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.utils.atomic import atomic_write_text, exhaustion_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.faults import TaskFailure

__all__ = ["JournalError", "RunJournal", "check_record", "read_json"]

_RECORD_FORMAT = "repro-journal-record"
_RECORD_VERSION = 1
_SAFE = re.compile(r"[^-._A-Za-z0-9]")


class JournalError(RuntimeError):
    """A run directory is missing, corrupt, or belongs to another config."""


def read_json(path) -> "dict[str, Any] | None":
    """A JSON object, or ``None`` when the file is missing, torn, garbled,
    or holds JSON that is not an object.

    The one reader of the JSON documents under a runs root — journal
    records, ``meta.json``, ``status.json``, ``crashes.json``, queue
    manifests, and a run directory's ``summary.json`` and
    ``metrics.json``.  Any of them may be mid-write, or left behind by a
    writer that died, so each caller treats ``None`` as damage to
    tolerate, never as a crash."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def check_record(doc: "dict[str, Any] | None") -> "tuple[int, bytes]":
    """The task index and pickled payload of a journal record read by
    :func:`read_json`, after its format, base64 and SHA-256 checks.

    Raises ``ValueError`` naming the first check that fails; both the
    resume path (:meth:`RunJournal.load_stage`) and ``repro doctor``
    judge records by it."""
    if doc is None:
        raise ValueError("torn, garbled, or not a JSON object")
    if doc.get("format") != _RECORD_FORMAT:
        raise ValueError("not a journal record")
    try:
        index = int(doc["index"])
        payload = base64.b64decode(doc["pickle_b64"])
        digest = doc["sha256"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or mistyped field {exc}") from exc
    if hashlib.sha256(payload).hexdigest() != digest:
        raise ValueError("checksum mismatch")
    return index, payload


def _sanitize(name: str) -> str:
    safe = _SAFE.sub("_", name)
    if not safe:
        raise JournalError(f"unusable stage/run name {name!r}")
    return safe


class RunJournal:
    """The journal of one run directory.  Use :meth:`create`/:meth:`open`."""

    def __init__(self, run_dir: Path, meta: "dict[str, Any]"):
        self.run_dir = Path(run_dir)
        self.meta = meta
        self._namespace = ""
        self._loaded_stages: "set[str]" = set()
        #: Corrupt/torn records skipped (and re-run) by :meth:`load_stage`.
        self.corrupt_records = 0
        #: Task count of every stage this run opened (full stage name →
        #: expected count); recorded into ``status.json`` so offline
        #: auditors (``repro doctor``) can detect out-of-range records.
        self.stage_counts: "dict[str, int]" = {}
        self._degraded = _events.DegradedWrites("journal.degraded_writes")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, root, run_id: str, meta: "dict[str, Any]") -> "RunJournal":
        """Start a fresh journaled run; refuses to reuse an existing id."""
        run_dir = Path(root) / _sanitize(run_id)
        if run_dir.exists():
            raise JournalError(
                f"run directory {run_dir} already exists; resume it with "
                f"--resume {run_id} or pick a new --run-id"
            )
        run_dir.mkdir(parents=True)
        doc = {"format": "repro-run", "version": _RECORD_VERSION, "run_id": run_id}
        doc.update(meta)
        atomic_write_text(run_dir / "meta.json", json.dumps(doc, indent=2) + "\n")
        return cls(run_dir, doc)

    @classmethod
    def open(cls, root, run_id: str) -> "RunJournal":
        """Re-open an existing run for resumption."""
        run_dir = Path(root) / _sanitize(run_id)
        meta_path = run_dir / "meta.json"
        if not run_dir.is_dir() or not meta_path.is_file():
            known = cls.list_runs(root)
            hint = f"; known run ids: {', '.join(known)}" if known else ""
            raise JournalError(f"no journaled run at {run_dir}{hint}")
        meta = read_json(meta_path)
        if meta is None:
            raise JournalError(
                f"corrupt run metadata at {meta_path}: torn, garbled, or not a JSON object"
            )
        if meta.get("format") != "repro-run":
            raise JournalError(f"{meta_path} is not a repro run journal")
        return cls(run_dir, meta)

    @staticmethod
    def list_runs(root) -> "list[str]":
        """Run ids present under a runs root (for error messages)."""
        base = Path(root)
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if (p / "meta.json").is_file())

    @property
    def run_id(self) -> str:
        return str(self.meta.get("run_id", self.run_dir.name))

    # -- namespacing -------------------------------------------------------

    @contextmanager
    def namespace(self, prefix: str):
        """Scope stage names under ``prefix`` (the experiment id)."""
        previous = self._namespace
        self._namespace = _sanitize(prefix)
        try:
            yield self
        finally:
            self._namespace = previous

    def _stage_dir(self, stage: str) -> Path:
        parts = ["stages"]
        if self._namespace:
            parts.append(self._namespace)
        parts.append(_sanitize(stage))
        return self.run_dir.joinpath(*parts)

    def _full_stage(self, stage: str) -> str:
        return f"{self._namespace}/{stage}" if self._namespace else stage

    # -- degradation -------------------------------------------------------

    @property
    def degraded_writes(self) -> int:
        """Checkpoint/status writes dropped because the filesystem was
        exhausted — the run continued, merely un-checkpointed."""
        return self._degraded.count

    def _degrade(self, what: str, exc: OSError) -> None:
        """Absorb a failed best-effort write: count it, warn once.

        Checkpoint, status, and crash-count writes are diagnostics plus
        resume capital — never correctness — so a full or read-only
        filesystem downgrades them to "un-checkpointed" instead of
        failing the run.  The count lands in ``status.json`` (when that
        file is still writable) and in the ``journal.degraded_writes``
        counter, so the degradation is visible after the fact.
        """
        kind = exhaustion_kind(exc) or "write-error"
        self._degraded.absorb(
            exc,
            f"journal write failed ({kind}: {exc}) — continuing "
            f"without checkpointing {what}; results stay correct but "
            "the run is no longer resumable past this point",
            what=what,
            stacklevel=3,
        )

    # -- records -----------------------------------------------------------

    def record(self, stage: str, index: int, result: Any) -> None:
        """Journal one completed task result (atomic, checksummed).

        Records are pickled at ``pickle.HIGHEST_PROTOCOL`` (matching the
        dispatch queue); :meth:`load_stage` reads any protocol, so
        journals written by older versions (protocol 4) still resume.
        Best effort under resource exhaustion: see :meth:`_degrade`.
        """
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        doc = {
            "format": _RECORD_FORMAT,
            "version": _RECORD_VERSION,
            "stage": self._full_stage(stage),
            "index": int(index),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "pickle_b64": base64.b64encode(payload).decode("ascii"),
        }
        try:
            chaos.on_write("journal.record", self._full_stage(stage), int(index))
            stage_dir = self._stage_dir(stage)
            stage_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(stage_dir / f"task-{index:06d}.json", json.dumps(doc))
        except OSError as exc:
            self._degrade(f"task {index} (stage {stage!r})", exc)
            return
        _metrics.add("journal.records")

    def load_stage(self, stage: str, expected_count: int) -> "dict[int, Any]":
        """Valid recorded results of a stage, keyed by task index.

        Records that fail to parse or checksum are skipped with a warning
        (the task simply re-runs); a record index beyond
        ``expected_count`` means the journal belongs to a different
        configuration and is an error.
        """
        full = self._full_stage(stage)
        if full in self._loaded_stages:
            raise JournalError(
                f"stage {full!r} opened twice in one run — give each "
                "map_tasks call a distinct stage name"
            )
        self._loaded_stages.add(full)
        self.stage_counts[full] = int(expected_count)
        stage_dir = self._stage_dir(stage)
        results: "dict[int, Any]" = {}
        if not stage_dir.is_dir():
            return results
        for path in sorted(stage_dir.glob("task-*.json")):
            try:
                index, payload = check_record(read_json(path))
                value = pickle.loads(payload)
            except (ValueError, pickle.UnpicklingError) as exc:
                self.corrupt_records += 1
                _metrics.add("journal.corrupt_records")
                warnings.warn(
                    f"journal record {path} is corrupt ({exc}); the task "
                    "will re-run",
                    stacklevel=2,
                )
                continue
            if index >= expected_count or index < 0:
                raise JournalError(
                    f"journal stage {full!r} holds task index {index} but the "
                    f"current sweep has only {expected_count} task(s) — the "
                    "run was created with a different config/scale/seed"
                )
            results[index] = value
        return results

    # -- crash counts (poison-task quarantine) -----------------------------

    def _crashes_path(self, stage: str) -> Path:
        return self._stage_dir(stage) / "crashes.json"

    def crash_counts(self, stage: str) -> "dict[int, int]":
        """Fatal-attempt counts per task index, persisted per stage.

        Survives pool rebuilds, dispatcher restarts, and ``--resume``:
        a task that killed its worker K times in a previous incarnation
        of the run starts this incarnation already at K.
        """
        doc = read_json(self._crashes_path(stage)) or {}
        try:
            return {int(k): int(v) for k, v in doc.items()}
        except (TypeError, ValueError):
            return {}

    def record_crash(self, stage: str, index: int) -> int:
        """Bump a task's fatal-attempt count; returns the new count.

        Best effort on disk (see :meth:`_degrade`) but always counted in
        memory via the returned value, so quarantine still trips within
        one process even when the filesystem is exhausted.
        """
        counts = self.crash_counts(stage)
        counts[int(index)] = counts.get(int(index), 0) + 1
        try:
            chaos.on_write("journal.crashes", self._full_stage(stage), int(index))
            stage_dir = self._stage_dir(stage)
            stage_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self._crashes_path(stage),
                json.dumps({str(k): v for k, v in sorted(counts.items())}),
            )
        except OSError as exc:
            self._degrade(f"crash count of task {index} (stage {stage!r})", exc)
        return counts[int(index)]

    # -- run status --------------------------------------------------------

    def log_failure(self, failure: "TaskFailure") -> None:
        """Append a failure record to ``failures.jsonl`` (best effort)."""
        doc = dict(failure.to_dict())
        doc["stage"] = self._full_stage(failure.stage)
        try:
            chaos.on_write("journal.failures", doc["stage"], failure.index)
            with open(self.run_dir / "failures.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(doc) + "\n")
        except OSError as exc:  # diagnostics must never take the run down
            self._degrade("failure log", exc)

    def write_status(self, doc: "dict[str, Any]") -> None:
        """Atomically (re)write the run's ``status.json`` (best effort)."""
        try:
            chaos.on_write("journal.status")
            atomic_write_text(
                self.run_dir / "status.json", json.dumps(doc, indent=2) + "\n"
            )
        except OSError as exc:
            self._degrade("status.json", exc)

    def health(self) -> "dict[str, Any]":
        """Journal-health block for ``status.json``/``summary.json``."""
        return {
            "corrupt_records": self.corrupt_records,
            "degraded_writes": self.degraded_writes,
            "stages": dict(sorted(self.stage_counts.items())),
        }

    def adopt_health(self, health: "dict[str, Any]") -> None:
        """Fold in the :meth:`health` of another handle on this run
        directory — one a worker opened to run a whole experiment — so
        ``status.json`` covers the stages it opened."""
        self.corrupt_records += int(health["corrupt_records"])
        self._degraded.count += int(health["degraded_writes"])
        self.stage_counts.update(health["stages"])
