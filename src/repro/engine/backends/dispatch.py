"""Dispatch backend — multi-host work-stealing over a shared directory.

The serial and pool backends are bounded by one machine's core count.
This backend removes that ceiling without a network stack: the
dispatcher (the process inside ``map_tasks``) publishes a *task queue*
as plain files under a runs root, and any number of worker processes —
started with ``repro worker <runs-root>``, on this host or on any host
that mounts the same directory — steal tasks from it::

    <runs-root>/queues/<queue-id>/
        manifest.json        # queue announce: stage, status open|closed,
                             # task count, worker heartbeat period
        bundle.pkl           # task function, stage, experiment id, the
                             # stage's shared context and the
                             # dispatcher's RunContext
        todo/task-NNNNNN-aK.pkl      # unclaimed work unit, attempt K
        claimed/task-NNNNNN-aK.pkl   # claimed by exactly one worker
        leases/lease-NNNNNN.json     # who holds it; mtime = heartbeat
        results/task-NNNNNN-aK.pkl   # per-task result envelope

Small tasks amortize the claim/heartbeat/pickle round trip through
**chunking**: a queue file is a *work unit* — a list of consecutive
tasks named after its head task's index — and a worker claims the whole
unit at once (``chunk`` tasks per claim, auto-sized from the task and
worker counts by default).  Results still stream back as one envelope
*per task*, settled strictly in task order, so chunking is invisible to
result bytes; on a lost worker or a retry, surviving tasks of a unit
are re-issued as singleton units.

Work stealing is one atomic ``os.rename`` from ``todo/`` into
``claimed/`` — exactly one worker wins the race, no locks, no server.
The winner records a lease (:class:`~repro.engine.journal.LeaseLedger`)
and touches it while the task executes; the dispatcher measures
heartbeats on its **own** monotonic clock (cross-host wall clocks are
never compared), declares a worker lost when its lease stops moving,
and re-issues the task.  Every file is written atomically
(write-then-rename), so readers on any host see whole records or
nothing.

The dispatcher is a transport for the shared task lifecycle
(:mod:`~repro.engine.backends.lifecycle`): it turns what the files show
— a result envelope, a unit past its wall-clock budget, a lease that
stopped moving — into lifecycle events, and publishes whatever the
lifecycle makes ready (a retry, a re-issue after a lost worker) as a
singleton unit.  Retry, quarantine and ``on_error`` are decided there.

Single-host runs get their workers from the backend itself
(``local_workers``, the CLI's ``--dispatch-workers``): processes forked
from the dispatcher, so they start without a fresh interpreter's
imports, that serve the runs root exactly as ``repro worker`` does.
Each writes one byte to a pipe after posting a result envelope, and
the dispatcher waits on that pipe (at most ``poll`` seconds) instead of
sleeping, so it settles a result as soon as it lands.  A local worker
that dies while a stage is open is forked again.  External workers
still find results by polling; the file protocol is the same for both.

Determinism is inherited, not re-proven: tasks carry their spawned
seeds, workers install the dispatcher's run context before executing,
result envelopes are settled strictly in task order, and retry /
timeout / worker-loss recovery re-executes tasks whose randomness lives
on the task — so ``--executor dispatch`` with any worker count (and any
worker deaths) produces result bytes identical to ``--executor serial``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import re
import select
import shutil
import socket
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.engine import chaos
from repro.engine.backends.base import (
    ExecutionBackend,
    RunState,
    adopt_run,
    execute_task,
    record_event,
    set_worker_name,
    shipped_run,
)
from repro.engine.backends.lifecycle import StageRun
from repro.engine.backends.serial import degrade_local
from repro.engine.journal import LeaseLedger
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.utils.atomic import atomic_write_bytes, atomic_write_text, exhaustion_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = [
    "DEFAULT_DISPATCH_ROOT",
    "DISPATCH_ROOT_ENV",
    "DispatchBackend",
    "sleep_echo_task",
    "worker_loop",
]

#: Where queues live when no root is configured (matches the CLI's
#: default ``--runs-root``).
DEFAULT_DISPATCH_ROOT = ".repro-runs"

#: Environment override for the queue root when ``--executor dispatch``
#: is selected without a configured backend instance.
DISPATCH_ROOT_ENV = "REPRO_DISPATCH_ROOT"

_MANIFEST_FORMAT = "repro-dispatch-queue"
_MANIFEST_VERSION = 1

#: Seconds without any claim before the dispatcher reminds the user
#: that dispatch needs ``repro worker`` processes.
_NO_WORKER_HINT_AFTER = 10.0

#: Restart bound of a local worker slot: once this many workers in a
#: row on one slot have exited without claiming a work unit, the slot
#: stays empty, so a worker that dies on start-up cannot fork in a loop.
_BARREN_EXITS = 3

_TASK_FILE = re.compile(r"^task-(\d{6})-a(\d+)\.pkl$")
_SAFE = re.compile(r"[^-._A-Za-z0-9]")


def _task_name(index: int, attempt: int) -> str:
    return f"task-{int(index):06d}-a{int(attempt)}.pkl"


def _parse_task_name(name: str) -> "tuple[int, int] | None":
    m = _TASK_FILE.match(name)
    return None if m is None else (int(m.group(1)), int(m.group(2)))


def sleep_echo_task(task: "Task") -> Any:
    """Benchmark/smoke task function, module-level so external dispatch
    workers can unpickle it by reference: optionally sleeps
    ``payload["sleep"]`` seconds, then echoes its payload."""
    payload = task.payload
    if isinstance(payload, dict) and payload.get("sleep"):
        time.sleep(float(payload["sleep"]))
    return payload


def seeded_norm_task(task: "Task") -> float:
    """Soak-harness task function (module-level for the same reason as
    :func:`sleep_echo_task`): draws from the task's *spawned seed* — the
    determinism contract's randomness channel — so a re-executed attempt
    (after a retry, a lost worker, or a quarantine near-miss) reproduces
    the exact bytes of the first, on any backend at any worker count."""
    import numpy as np

    n = int(task.payload.get("n", 64)) if isinstance(task.payload, dict) else 64
    values = np.random.default_rng(task.seed).standard_normal(n)
    return float(np.sum(values * values))


# ---------------------------------------------------------------------------
# Dispatcher side.
# ---------------------------------------------------------------------------


class DispatchBackend(ExecutionBackend):
    """Publish tasks to a shared-directory queue and merge streamed
    result envelopes back in task order.

    Parameters
    ----------
    root:
        The shared runs root (workers join with ``repro worker ROOT``).
        Defaults to ``$REPRO_DISPATCH_ROOT`` or ``.repro-runs``.
    local_workers:
        Convenience: fork this many local workers the first time a queue
        opens (stopped again by :meth:`close`, and never outliving this
        process).  A local worker that dies while a stage is open is
        forked again, up to the ``_BARREN_EXITS`` bound.  Zero (the
        default) relies on externally started workers.
    lease_timeout:
        Seconds a claimed unit's lease may go without a heartbeat before
        its worker is declared lost and the unit's unfinished tasks are
        re-issued.
    poll:
        Dispatcher poll interval in seconds (local workers wake the
        dispatcher before it runs out).
    chunk:
        Tasks per claimed work unit.  ``None`` (the default) auto-sizes
        to ``num_tasks // (4 · workers)`` clamped into ``[1, 16]`` — a
        few units per worker so stealing still balances load, but small
        tasks stop paying one claim/heartbeat/pickle round trip each.
        Results are identical for every chunk size.
    """

    name = "dispatch"

    def __init__(
        self,
        root=None,
        *,
        local_workers: int = 0,
        lease_timeout: float = 10.0,
        poll: float = 0.05,
        chunk: "int | None" = None,
    ):
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if chunk is not None and int(chunk) < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.root = Path(
            root
            if root is not None
            else os.environ.get(DISPATCH_ROOT_ENV, DEFAULT_DISPATCH_ROOT)
        )
        self.local_workers = int(local_workers)
        self.lease_timeout = float(lease_timeout)
        self.poll = float(poll)
        self.chunk = None if chunk is None else int(chunk)
        self._seq = 0
        self._fleet: "_LocalFleet | None" = None

    def _resolve_chunk(self, num_tasks: int) -> int:
        """Tasks per work unit: the explicit setting, or auto-sized so
        every worker still sees several units to steal."""
        if self.chunk is not None:
            return self.chunk
        workers = self.local_workers if self.local_workers > 0 else 4
        return max(1, min(16, num_tasks // (workers * 4)))

    # -- queue lifecycle ---------------------------------------------------

    def _queue_dir(self, stage: str) -> Path:
        self._seq += 1
        stage_part = _SAFE.sub("_", stage) or "stage"
        queue_id = f"{socket.gethostname()}-{os.getpid()}-{self._seq:03d}-{stage_part}"
        return self.root / "queues" / queue_id

    def _open_queue(
        self, state: RunState, pending: "list[Task]"
    ) -> "tuple[Path, list[list[int]]]":
        """Publish bundle + chunked todo units (all at attempt 1), then the
        manifest (workers only act once the manifest appears, so ordering
        makes the queue appear atomically complete).  Returns the queue
        directory and the member indices of every unit."""
        chaos.on_write("dispatch.queue", state.stage)
        qdir = self._queue_dir(state.stage)
        for sub in ("todo", "claimed", "leases", "results"):
            (qdir / sub).mkdir(parents=True)
        bundle_doc = {
            "fn": state.fn,
            "stage": state.stage,
            "experiment": state.experiment,
            "context": state.context,
            "run": shipped_run(),
        }
        atomic_write_bytes(
            qdir / "bundle.pkl",
            pickle.dumps(bundle_doc, protocol=pickle.HIGHEST_PROTOCOL),
        )
        chunk = self._resolve_chunk(len(pending))
        groups = []
        for lo in range(0, len(pending), chunk):
            group = pending[lo : lo + chunk]
            groups.append([t.index for t in group])
            payload: "Any" = group if len(group) > 1 else group[0]
            atomic_write_bytes(
                qdir / "todo" / _task_name(group[0].index, 1),
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            )
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "queue": qdir.name,
            "stage": state.stage,
            "status": "open",
            "tasks": len(pending),
            "chunk": chunk,
            "heartbeat": max(0.2, self.lease_timeout / 4.0),
        }
        atomic_write_text(qdir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
        obs_metrics.add("executor.dispatch.queues")
        obs_events.emit(
            "queue-open",
            queue=qdir.name,
            stage=state.stage,
            tasks=len(pending),
            chunk=chunk,
        )
        return qdir, groups

    @staticmethod
    def _close_queue(qdir: Path) -> None:
        try:
            doc = json.loads((qdir / "manifest.json").read_text(encoding="utf-8"))
            doc["status"] = "closed"
            atomic_write_text(qdir / "manifest.json", json.dumps(doc) + "\n")
        except OSError:
            pass
        shutil.rmtree(qdir, ignore_errors=True)
        obs_events.emit("queue-closed", queue=qdir.name)

    def close(self) -> None:
        """Stop any local workers."""
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None

    # -- the dispatch loop -------------------------------------------------

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        run = StageRun(state, pending, results)
        if run.done:
            return
        publish = [run.tasks[i] for i in run.ready()]
        try:
            qdir, groups = self._open_queue(state, publish)
        except OSError as exc:
            kind = exhaustion_kind(exc)
            if kind is None:
                raise
            # The queue root itself is exhausted: running the stage in
            # the dispatcher process beats crashing.
            degrade_local(
                run,
                f"cannot publish the dispatch queue ({kind}: {exc}); "
                f"executing {len(publish)} task(s) in the dispatcher process",
            )
            return
        queue = _QueueRun(self, run, qdir)
        for members in groups:
            for idx in members:
                run.issue(idx)
            queue.add_unit(members, 1)
        if self.local_workers > 0 and self._fleet is None:
            self._fleet = _LocalFleet(self.root, self.local_workers)
        fleet = self._fleet
        pulse = obs_events.Heartbeat(
            "dispatcher", period=min(2.0, max(0.5, self.lease_timeout / 4.0))
        )
        started = time.monotonic()
        hinted = False
        degraded = None
        try:
            while not run.done:
                now = time.monotonic()
                pulse.beat(
                    tasks=run.settled_count, stage=state.stage,
                    inflight=sum(u.claimed_at is not None for u in queue.units.values()),
                )
                queue.harvest()
                if fleet is not None:
                    fleet.revive(queue)
                queue.watch(now)
                degraded = queue.issue_due()
                if degraded is not None or run.done:
                    break
                why = None
                if fleet is not None and fleet.exhausted():
                    why = "every local worker exited at its restart bound"
                elif not queue.claimed_any and now - started > _NO_WORKER_HINT_AFTER:
                    why = "no worker has claimed a task yet"
                if why is not None and not hinted:
                    hinted = True
                    print(
                        f"dispatch: {why}; start workers with: "
                        f"repro worker {self.root}",
                        file=sys.stderr,
                    )
                if fleet is not None:
                    fleet.wait(self.poll)
                else:
                    time.sleep(self.poll)
        finally:
            self._close_queue(qdir)
        if degraded is not None:
            degrade_local(run, degraded)


def _remote_error(idx: int, stage: str, doc: "dict[str, Any]") -> BaseException:
    """The exception a worker shipped back in a failure envelope, or a
    stand-in naming it when it cannot be unpickled here."""
    try:
        exc = pickle.loads(doc["exception"])
    except Exception:
        exc = None
    if isinstance(exc, BaseException):
        return exc
    return RuntimeError(
        f"task {idx} (stage {stage!r}) failed on worker {doc.get('worker')!r}: "
        f"[{doc.get('error_type')}] {doc.get('message')}"
    )


@dataclass
class _Unit:
    """One published work unit, keyed by its head task's index."""

    #: Members not yet resolved; the unit is dropped when none remain.
    members: "list[int]"
    #: The queue-file attempt every member was issued at.
    attempt: int
    #: Size at issue time, which scales the wall-clock budget.
    size: int
    #: Dispatcher-clock time the claim was first seen.
    claimed_at: "float | None" = None
    #: The lease mtime last seen, and the dispatcher-clock time it moved.
    beat: "tuple[float, float] | None" = None


class _QueueRun:
    """The dispatcher side of one open queue: turns what workers leave
    behind (claims, lease heartbeats, result envelopes) into lifecycle
    events, and publishes what the lifecycle makes ready."""

    def __init__(self, backend: DispatchBackend, run: StageRun, qdir: Path):
        self.backend = backend
        self.run = run
        self.state = run.state
        self.qdir = qdir
        self.ledger = LeaseLedger(qdir / "leases")
        self.units: "dict[int, _Unit]" = {}
        self.head_of: "dict[int, int]" = {}
        self.claimed_any = False
        #: Workers that posted a result envelope to this queue.
        self.posted_by: "set[str]" = set()

    def add_unit(self, members: "list[int]", attempt: int) -> None:
        self.units[members[0]] = _Unit(list(members), attempt, len(members))
        for idx in members:
            self.head_of[idx] = members[0]

    def _clear(self, head: int) -> _Unit:
        """Drop a work unit's queue file, lease, and tracking state."""
        unit = self.units.pop(head)
        for sub in ("claimed", "todo"):
            try:
                (self.qdir / sub / _task_name(head, unit.attempt)).unlink()
            except OSError:
                pass
        self.ledger.release(head)
        for idx in unit.members:
            self.head_of.pop(idx, None)
        return unit

    def _resolve_member(self, idx: int) -> None:
        """Mark one task resolved inside its unit; drop the unit once its
        last member resolves."""
        head = self.head_of.pop(idx, None)
        if head is not None:
            members = self.units[head].members
            members.remove(idx)
            if not members:
                self._clear(head)

    def harvest(self) -> None:
        """Report streamed per-task result envelopes to the lifecycle,
        which ignores stale attempts (timed out and re-issued)."""
        results_dir = self.qdir / "results"
        try:
            names = sorted(p.name for p in results_dir.iterdir())
        except OSError:
            return
        for name in names:
            parsed = _parse_task_name(name)
            if parsed is None:
                continue
            idx, attempt = parsed
            path = results_dir / name
            try:
                doc = pickle.loads(path.read_bytes())
            except Exception:
                doc = None
            try:
                path.unlink()
            except OSError:
                pass
            if doc is None:
                continue
            self.posted_by.add(doc.get("worker"))
            if doc.get("ok"):
                accepted = self.run.succeeded(idx, attempt, doc["outcome"])
            else:
                accepted = self.run.raised(
                    idx, attempt, _remote_error(idx, self.state.stage, doc),
                    str(doc.get("error_type")), str(doc.get("message")),
                )
            if accepted:
                self._resolve_member(idx)

    def watch(self, now: float) -> None:
        """Track unit claims and heartbeats on the dispatcher's own clock;
        report units past their wall-clock budget as timed out and units
        whose lease stopped moving as lost."""
        timeout = self.state.timeout
        for head, unit in list(self.units.items()):
            if not (self.qdir / "claimed" / _task_name(head, unit.attempt)).exists():
                # A claim that vanished without results for the live
                # members means its worker died mid-cleanup.  With result
                # files the worker simply finished between our harvest
                # and this scan.
                if unit.claimed_at is not None and not any(
                    (self.qdir / "results" / _task_name(m, unit.attempt)).exists()
                    for m in unit.members
                ):
                    self._lost(head)
                continue
            if unit.claimed_at is None:
                unit.claimed_at = now
                self.claimed_any = True
            mt = self.ledger.mtime(head)
            if mt is not None and (unit.beat is None or mt != unit.beat[0]):
                unit.beat = (mt, now)
            last_sign = unit.beat[1] if unit.beat is not None else unit.claimed_at
            # A unit executes its tasks back to back on one claim, so its
            # budget is the per-task budget times its issue size.
            if timeout is not None and now - unit.claimed_at > timeout * unit.size:
                self._timed_out(head, timeout * unit.size)
            elif now - last_sign > self.backend.lease_timeout:
                self._lost(head)

    def leased_to(self, worker: str) -> bool:
        """Whether ``worker`` holds the lease of a unit still in flight."""
        return any(
            (self.ledger.load(head) or {}).get("worker") == worker
            for head in self.units
        )

    def _timed_out(self, head: int, budget: float) -> None:
        unit = self._clear(head)
        record_event(
            self.state,
            "timeout",
            f"work unit {head} ({len(unit.members)} unfinished tasks) exceeded "
            f"its {budget:g}s wall-clock budget on the dispatch backend; "
            "abandoning the attempt",
            index=head,
        )
        for idx in unit.members:
            self.run.timed_out(idx, unit.attempt, budget)

    def _lost(self, head: int) -> None:
        lease = self.ledger.load(head) or {}
        unit = self._clear(head)
        record_event(
            self.state,
            "worker-lost",
            f"worker {lease.get('worker', '<unknown>')!r} stopped "
            f"heartbeating while holding work unit {head} "
            f"({len(unit.members)} unfinished tasks); re-issuing them",
            index=head,
        )
        for idx in unit.members:
            self.run.lost(idx, unit.attempt)

    def issue_due(self) -> "str | None":
        """Re-issue ready tasks as singleton units; returns the reason to
        degrade to local execution when the queue filesystem is exhausted.

        A task whose index still heads a live unit (its siblings remain
        in flight under that head) waits until the unit drains, so
        queue-file names and the head's lease stay unambiguous."""
        for idx in self.run.ready():
            if idx in self.units:
                continue
            attempt = self.run.attempt[idx]
            try:
                chaos.on_write("dispatch.todo", self.state.stage, idx)
                atomic_write_bytes(
                    self.qdir / "todo" / _task_name(idx, attempt),
                    pickle.dumps(self.run.tasks[idx], protocol=pickle.HIGHEST_PROTOCOL),
                )
            except OSError as exc:
                kind = exhaustion_kind(exc)
                if kind is None:
                    continue  # transient FS error; retried on the next poll
                return (
                    f"cannot re-issue task {idx} ({kind}: {exc}); executing "
                    "the rest of the stage in the dispatcher process"
                )
            self.run.issue(idx)
            obs_metrics.add("executor.dispatch.reissues")
            obs_events.emit("reissue", stage=self.state.stage, index=idx, attempt=attempt)
            self.add_unit([idx], attempt)
        return None


class _LocalFleet:
    """A backend's ``local_workers``: processes forked from the
    dispatcher (``daemon=True``, so none outlives it) that serve its
    runs root, each in a numbered *slot*, and the pipe through which
    they wake it after posting a result envelope.

    Forking skips a fresh interpreter's imports.  It is safe here
    although a monitored dispatcher runs a metrics-snapshot thread: a
    forked worker drops the registry that thread renders and never
    writes the snapshot file, so it takes no lock that thread may hold.
    """

    def __init__(self, root: Path, size: int):
        self.root = root
        self._fork = multiprocessing.get_context("fork")
        self.wake_r, self.wake_w = os.pipe()
        os.set_blocking(self.wake_r, False)
        os.set_blocking(self.wake_w, False)
        #: Workers started per slot, and exits in a row without a claim.
        self.starts = [0] * size
        self.barren = [0] * size
        self.procs = [self._start(slot) for slot in range(size)]

    def _start(self, slot: int) -> "multiprocessing.process.BaseProcess":
        nth = self.starts[slot]
        self.starts[slot] += 1
        name = f"local-{os.getpid()}-{slot}" + (f".{nth}" if nth else "")
        proc = self._fork.Process(
            target=_local_worker,
            args=(str(self.root), name, self.wake_r, self.wake_w),
            name=name,
            daemon=True,
        )
        proc.start()
        return proc

    def revive(self, queue: "_QueueRun") -> None:
        """Fork a new worker into every slot whose worker has exited,
        unless the slot reached its :data:`_BARREN_EXITS` bound.

        A worker that exits 0 has idled for its ``max_idle`` (600 s)
        between stages, and one that posted to this queue or holds a
        lease in it had claimed work; neither counts towards the bound.
        """
        for slot, proc in enumerate(self.procs):
            if self.barren[slot] >= _BARREN_EXITS or proc.is_alive():
                continue
            if (
                proc.exitcode == 0
                or proc.name in queue.posted_by
                or queue.leased_to(proc.name)
            ):
                self.barren[slot] = 0
            else:
                self.barren[slot] += 1
                if self.barren[slot] >= _BARREN_EXITS:
                    continue
            self.procs[slot] = self._start(slot)
            obs_metrics.add("executor.dispatch.worker_restarts")
            obs_events.emit(
                "worker-restart",
                stage=queue.state.stage,
                worker=self.procs[slot].name,
                replaces=proc.name,
                exitcode=proc.exitcode,
            )
            proc.close()

    def exhausted(self) -> bool:
        """Whether every slot is empty for good."""
        return all(b >= _BARREN_EXITS for b in self.barren)

    def wait(self, timeout: float) -> None:
        """Block until a worker posts a result or exits, or ``timeout``
        seconds pass; then drain the pipe."""
        watched = [self.wake_r] + [
            proc.sentinel
            for slot, proc in enumerate(self.procs)
            if self.barren[slot] < _BARREN_EXITS
        ]
        if select.select(watched, [], [], timeout)[0]:
            try:
                while os.read(self.wake_r, 4096):
                    pass
            except BlockingIOError:
                pass

    def close(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
            proc.close()
        os.close(self.wake_r)
        os.close(self.wake_w)


# ---------------------------------------------------------------------------
# Worker side (``repro worker <runs-root>``, or forked local workers).
# ---------------------------------------------------------------------------

#: Write end of the dispatcher's wake pipe in a forked local worker;
#: ``None`` in a ``repro worker`` process, whose dispatcher polls.
_WAKE_FD: "int | None" = None


def _local_worker(root: str, name: str, wake_r: int, wake_w: int) -> None:
    """Body of a forked local worker: shed the dispatcher's telemetry
    sinks, send output to /dev/null, and serve ``root`` as ``repro
    worker ROOT --name NAME --poll 0.02 --max-idle 600`` does, waking
    the dispatcher after each result envelope it posts."""
    global _WAKE_FD
    obs.shed()
    os.close(wake_r)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    sys.stdout = sys.stderr = open(devnull, "w", encoding="utf-8")
    _WAKE_FD = wake_w
    worker_loop(root, name=name, poll=0.02, max_idle=600)


def _scan_queues(root: Path) -> "list[Path]":
    """Open dispatch queues under a runs root, oldest name first."""
    queues = root / "queues"
    try:
        candidates = sorted(p for p in queues.iterdir() if p.is_dir())
    except OSError:
        return []
    return [p for p in candidates if (p / "manifest.json").is_file()]


def _claim_next(qdir: Path) -> "tuple[Path, int, int] | None":
    """Steal one work unit: atomically rename a todo file into
    ``claimed/``.

    Exactly one worker wins each rename; losers see ``FileNotFoundError``
    and move on to the next file.  A unit file holds either a bare
    :class:`Task` or a list of consecutive tasks; the returned index is
    the unit's head (its first member).
    """
    todo = qdir / "todo"
    try:
        names = sorted(p.name for p in todo.iterdir())
    except OSError:
        return None
    for name in names:
        parsed = _parse_task_name(name)
        if parsed is None:
            continue
        target = qdir / "claimed" / name
        try:
            os.rename(todo / name, target)
        except OSError:
            continue  # another worker won the race (or the queue closed)
        return target, parsed[0], parsed[1]
    return None


def _heartbeat_loop(ledger: LeaseLedger, index: int, period: float,
                    stop: threading.Event) -> None:
    while not stop.wait(period):
        ledger.heartbeat(index)


def _envelope(worker: str, attempt: int, outcome: Any = None,
              error: "Exception | None" = None) -> bytes:
    """Pickle one per-task result envelope: the outcome, or (``error``
    set) the failure with its exception shipped when it pickles."""
    doc: "dict[str, Any]" = {"ok": error is None, "worker": worker, "attempt": attempt}
    if error is None:
        doc["outcome"] = outcome
    else:
        doc.update(error_type=type(error).__name__, message=str(error), exception=None)
        try:
            doc["exception"] = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            pass
    return pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)


def _post(qdir: Path, stage: str, index: int, attempt: int, payload: bytes) -> None:
    """Stream one result envelope back to the dispatcher (and wake it,
    when it forked this worker)."""
    try:
        chaos.on_write("dispatch.result", stage, index)
        atomic_write_bytes(qdir / "results" / _task_name(index, attempt), payload)
    except OSError:
        return  # queue closed under us; the attempt was re-issued
    if _WAKE_FD is not None:
        try:
            os.write(_WAKE_FD, b"\0")
        except OSError:
            pass  # the pipe is full (a wake is pending) or the dispatcher is gone


def _run_claimed(qdir: Path, fn, stage: str, experiment: "str | None", worker: str,
                 heartbeat: float, claimed: Path, head: int, attempt: int) -> None:
    """Execute one stolen work unit and stream one envelope per member
    task back.  Never raises: every failure becomes an envelope (or, for
    hard process death, a stale lease the dispatcher will notice).

    The heartbeat lease is keyed by the unit's head index and covers all
    members.  Member envelopes carry the *unit's* attempt number (the
    dispatcher issued every member at that attempt) and are written
    before the claimed file is removed, so a vanished claim with no
    member envelopes reliably signals a dead worker.
    """
    ledger = LeaseLedger(qdir / "leases")
    ledger.claim(head, attempt, worker)
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop, args=(ledger, head, heartbeat, stop), daemon=True
    )
    beat.start()
    try:
        try:
            payload_obj = pickle.loads(claimed.read_bytes())
        except Exception as exc:
            # The unit file itself is unreadable: report on the head; the
            # dispatcher recovers any remaining members via the
            # lost-worker path once the claim disappears.
            _post(qdir, stage, head, attempt, _envelope(worker, attempt, error=exc))
            return
        tasks = payload_obj if isinstance(payload_obj, list) else [payload_obj]
        for task in tasks:
            try:
                payload = _envelope(
                    worker, attempt, execute_task(fn, task, stage, experiment)
                )
            except Exception as exc:
                payload = _envelope(worker, attempt, error=exc)
            _post(qdir, stage, task.index, attempt, payload)
    finally:
        stop.set()
        beat.join(timeout=1.0)
        ledger.release(head)
        try:
            claimed.unlink()
        except OSError:
            pass


def _drain_queue(
    qdir: Path,
    worker: str,
    pulse: "obs_events.Heartbeat | None" = None,
    done_before: int = 0,
) -> int:
    """Steal and execute tasks from one queue until its todo pile is
    empty; returns how many tasks this worker executed."""
    try:
        manifest = json.loads((qdir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return 0
    if (
        manifest.get("format") != _MANIFEST_FORMAT
        or manifest.get("status") != "open"
    ):
        return 0
    try:
        bundle_doc = pickle.loads((qdir / "bundle.pkl").read_bytes())
        adopt_run(bundle_doc["run"], bundle_doc["context"])
        fn, stage, experiment = bundle_doc["fn"], bundle_doc["stage"], bundle_doc["experiment"]
    except Exception:
        return 0  # half-removed queue, or a bundle this worker cannot load
    heartbeat = float(manifest.get("heartbeat", 1.0))
    count = 0
    while True:
        stolen = _claim_next(qdir)
        if stolen is None:
            return count
        claimed, head, attempt = stolen
        _run_claimed(qdir, fn, stage, experiment, worker, heartbeat, claimed, head, attempt)
        count += 1
        if pulse is not None:
            pulse.beat(tasks=done_before + count, worker=worker)


def worker_loop(
    root,
    *,
    name: "str | None" = None,
    poll: float = 0.1,
    max_idle: "float | None" = None,
    heartbeat: float = obs_events.DEFAULT_HEARTBEAT_PERIOD,
) -> int:
    """Serve dispatch queues under ``root`` until told to stop.

    The body of ``repro worker`` and of the backend's forked local
    workers: scan for open queues, steal tasks, execute them under the
    dispatcher's shipped run context, and stream envelopes back.  Exits 0
    after ``max_idle`` seconds with nothing to do (``None`` = serve
    forever).  Chaos ``worker-lost`` faults may kill this process hard —
    that is the point of them.

    When the runs root has an ``events/`` directory (a monitored run is
    or was live), the worker joins the event bus: a ``worker-start``
    line, periodic ``heartbeat`` lines carrying host/pid/RSS and the
    tasks-per-second rate (every ``heartbeat`` seconds; ``0`` disables),
    and a ``worker-exit`` line on a clean idle exit.  A SIGKILLed worker
    simply stops heartbeating — which is exactly what ``repro top``'s
    stale-heartbeat warning and the dispatcher's lease timeout detect.
    """
    root = Path(root)
    worker = name or f"{socket.gethostname()}-{os.getpid()}"
    chaos.declare_worker_process()
    set_worker_name(worker)
    events_dir = root / obs_events.EVENTS_DIRNAME
    pulse = obs_events.Heartbeat("worker", period=heartbeat)
    total = 0
    idle_since = time.monotonic()
    try:
        while True:
            if obs.current().events is None and events_dir.is_dir():
                # A monitored run appeared (or was live before we
                # started): join the bus under our worker identity.
                obs.install(
                    replace(
                        obs.current(),
                        events=obs_events.EventBus(events_dir, f"worker-{worker}"),
                    )
                )
                obs_events.emit("worker-start", worker=worker)
            pulse.beat(tasks=total, worker=worker)
            processed = 0
            for qdir in _scan_queues(root):
                processed += _drain_queue(qdir, worker, pulse, total)
            total += processed
            if processed:
                idle_since = time.monotonic()
            else:
                if max_idle is not None and time.monotonic() - idle_since >= max_idle:
                    obs_events.emit("worker-exit", worker=worker, tasks=total)
                    return 0
                time.sleep(poll)
    finally:
        bus = obs.install(None).events
        if bus is not None:
            bus.close()
