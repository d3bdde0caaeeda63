"""Dispatch backend — a file queue served by workers the dispatcher forks.

The dispatcher (the process inside ``map_tasks``) publishes each stage as
a *task queue* of plain files under a runs root, and forks
``local_workers`` processes that take their tasks from it::

    <runs-root>/queues/<queue-id>/
        manifest.json        # stage, status open|closed, task count,
                             # unit size, the dispatcher's pid
        bundle.pkl           # task function, stage, experiment id, the
                             # stage's shared context and the
                             # dispatcher's RunContext
        todo/task-NNNNNN-aK.pkl            # unclaimed work unit, attempt K
        claimed/task-NNNNNN-aK@NAME.pkl    # claimed by worker NAME
        results/task-NNNNNN-aK.pkl         # per-task result envelope

A queue file is a *work unit*: a list of consecutive tasks named after
its head task's index, sized from the task and worker counts so that
small tasks do not pay one claim and pickle round trip each.  Results
still stream back as one envelope *per task*, settled strictly in task
order, so the unit size is invisible to result bytes; on a lost worker
or a retry, the unfinished tasks of a unit are re-issued as singleton
units.

A claim is one atomic ``os.rename`` from ``todo/`` into ``claimed/``
under a name that carries the worker's name, so exactly one worker wins
each unit, with no locks.  A dead worker is blamed through its process,
as on the pool: the dispatcher waits on every worker's exit, and when
one exits it harvests what the worker posted, then reports every unit
still claimed under the worker's name as lost.  Worker names are unique
per start, so a re-forked worker never inherits a claim.  Every file is
written atomically (write-then-rename).

The dispatcher is a transport for the shared task lifecycle
(:mod:`~repro.engine.backends.lifecycle`): it turns what the files and
the workers' exits show — a result envelope, a unit past its wall-clock
budget, a worker that exited holding a claim — into lifecycle events,
and publishes whatever the lifecycle makes ready (a retry, a re-issue
after a lost worker) as a singleton unit.  Retry, quarantine and
``on_error`` are decided there.

Workers are forked, so they start without a fresh interpreter's
imports.  Each takes units only from the queues its own dispatcher
opened, writes one byte to a pipe after posting a result envelope, and
exits once its dispatcher is gone.  The dispatcher waits on that pipe
and on the workers' exits (at most ``poll`` seconds), so it settles a
result as soon as it lands and re-issues a dead worker's units at once.
A worker that dies while a stage is open is forked again, up to a
restart bound; once every slot has reached it, the rest of the stage
runs in the dispatcher process (degrade-local).

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
import secrets
import select
import shutil
import sys
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
from repro.engine.executor import JOBS_CAP
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.utils.atomic import atomic_write_bytes, atomic_write_text, exhaustion_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = ["DispatchBackend", "sleep_echo_task"]

_MANIFEST_FORMAT = "repro-dispatch-queue"
_MANIFEST_VERSION = 2

#: Restart bound of a local worker slot: once this many workers in a
#: row on one slot have exited without claiming a work unit, the slot
#: stays empty, so a worker that dies on start-up cannot fork in a loop.
_BARREN_EXITS = 3

#: Seconds an idle worker sleeps between looks at its dispatcher's queues.
_WORKER_POLL = 0.02

_TASK_FILE = re.compile(r"^task-(\d{6})-a(\d+)(?:@(.+))?\.pkl$")
_SAFE = re.compile(r"[^-._A-Za-z0-9]")


def _task_name(index: int, attempt: int, worker: "str | None" = None) -> str:
    """A work unit's file name; its claim adds the claiming worker's name."""
    claim = "" if worker is None else f"@{worker}"
    return f"task-{int(index):06d}-a{int(attempt)}{claim}.pkl"


def _parse_task_name(name: str) -> "tuple[int, int, str | None] | None":
    """``(index, attempt, worker)`` of a unit or claim file name."""
    m = _TASK_FILE.match(name)
    return None if m is None else (int(m.group(1)), int(m.group(2)), m.group(3))


def _listdir(path: Path) -> "list[str]":
    """Sorted entry names of a queue directory (none once it is removed)."""
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


def sleep_echo_task(task: "Task") -> Any:
    """Benchmark/smoke task function, module-level so that a worker can
    unpickle it by reference: optionally sleeps ``payload["sleep"]``
    seconds, then echoes its payload."""
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
    """Publish tasks to a file queue, serve it with forked local workers,
    and merge streamed result envelopes back in task order.

    Parameters
    ----------
    root:
        The runs root the queues live under (the CLI's ``--runs-root``).
    local_workers:
        Worker processes to fork the first time a queue opens, from 1 to
        :data:`~repro.engine.executor.JOBS_CAP` (the CLI's
        ``--dispatch-workers``, ``--jobs`` by default).  :meth:`close`
        stops them, and they exit on their own once this process is
        gone.  A worker that dies while a stage is open is forked again,
        up to the ``_BARREN_EXITS`` bound.
    poll:
        The longest the dispatcher waits between looks at an open queue;
        a posted result or a worker's exit wakes it sooner.
    """

    name = "dispatch"

    def __init__(self, root, *, local_workers: int = 1, poll: float = 0.05):
        if not 1 <= int(local_workers) <= JOBS_CAP:
            raise ValueError(
                f"local_workers must be between 1 and {JOBS_CAP}, got {local_workers}"
            )
        self.root = Path(root)
        self.local_workers = int(local_workers)
        self.poll = float(poll)
        #: Every queue id this backend opens starts with this; its
        #: workers serve no other queue.  The token keeps a reused pid
        #: from claiming the queues a killed dispatcher left behind.
        self._prefix = f"{os.getpid()}-{secrets.token_hex(4)}-"
        self._seq = 0
        self._fleet: "_LocalFleet | None" = None

    def _chunk(self, num_tasks: int) -> int:
        """Tasks per work unit: a few units per worker, so that claims
        still balance the load, and at most 16 tasks each."""
        return max(1, min(16, num_tasks // (4 * self.local_workers)))

    # -- queue lifecycle ---------------------------------------------------

    def _open_queue(
        self, state: RunState, pending: "list[Task]"
    ) -> "tuple[Path, list[list[int]]]":
        """Publish bundle + chunked todo units (all at attempt 1), then the
        manifest (workers only act once the manifest appears, so ordering
        makes the queue appear atomically complete).  Returns the queue
        directory and the member indices of every unit."""
        chaos.on_write("dispatch.queue", state.stage)
        self._seq += 1
        stage_part = _SAFE.sub("_", state.stage) or "stage"
        qdir = self.root / "queues" / f"{self._prefix}{self._seq:03d}-{stage_part}"
        chunk = self._chunk(len(pending))
        units = [pending[lo : lo + chunk] for lo in range(0, len(pending), chunk)]
        bundle_doc = {
            "fn": state.fn,
            "stage": state.stage,
            "experiment": state.experiment,
            "context": state.context,
            "run": shipped_run(),
        }
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "queue": qdir.name,
            "stage": state.stage,
            "status": "open",
            "tasks": len(pending),
            "chunk": chunk,
            "dispatcher": os.getpid(),
        }
        for sub in ("todo", "claimed", "results"):
            (qdir / sub).mkdir(parents=True)
        atomic_write_bytes(
            qdir / "bundle.pkl",
            pickle.dumps(bundle_doc, protocol=pickle.HIGHEST_PROTOCOL),
        )
        for unit in units:
            atomic_write_bytes(
                qdir / "todo" / _task_name(unit[0].index, 1),
                pickle.dumps(unit if len(unit) > 1 else unit[0], protocol=pickle.HIGHEST_PROTOCOL),
            )
        atomic_write_text(qdir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
        obs_metrics.add("executor.dispatch.queues")
        obs_events.emit(
            "queue-open",
            queue=qdir.name,
            stage=state.stage,
            tasks=len(pending),
            chunk=chunk,
        )
        return qdir, [[t.index for t in unit] for unit in units]

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
        """Stop the local workers."""
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
        queue = _QueueRun(run, qdir)
        for members in groups:
            for idx in members:
                run.issue(idx)
            queue.add_unit(members, 1)
        if self._fleet is None:
            self._fleet = _LocalFleet(self.root, self.local_workers, self._prefix)
        fleet = self._fleet
        pulse = obs_events.Heartbeat("dispatcher")
        degraded = None
        try:
            while not run.done:
                pulse.beat(
                    tasks=run.settled_count, stage=state.stage,
                    inflight=sum(u.claimed_at is not None for u in queue.units.values()),
                )
                queue.harvest()
                fleet.revive(queue)
                queue.watch(time.monotonic())
                degraded = queue.issue_due()
                if degraded is None and not run.done and fleet.exhausted():
                    degraded = (
                        "every local worker exited at its restart bound; executing "
                        "the rest of the stage in the dispatcher process"
                    )
                if degraded is not None or run.done:
                    break
                fleet.wait(self.poll)
        finally:
            self._close_queue(qdir)
        if degraded is not None:
            degrade_local(run, degraded)


def _worker_error(idx: int, stage: str, doc: "dict[str, Any]") -> BaseException:
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
    #: The worker that claimed the unit, and the dispatcher-clock time
    #: the claim was first seen.
    worker: "str | None" = None
    claimed_at: "float | None" = None


class _QueueRun:
    """The dispatcher side of one open queue: turns what workers leave
    behind (claims, result envelopes, their exits) into lifecycle
    events, and publishes what the lifecycle makes ready."""

    def __init__(self, run: StageRun, qdir: Path):
        self.run = run
        self.state = run.state
        self.qdir = qdir
        self.units: "dict[int, _Unit]" = {}
        self.head_of: "dict[int, int]" = {}
        #: Workers that posted a result envelope to this queue.
        self.posted_by: "set[str]" = set()
        #: Workers the fleet saw exit while this queue was open.
        self.exited: "set[str]" = set()

    def add_unit(self, members: "list[int]", attempt: int) -> None:
        self.units[members[0]] = _Unit(list(members), attempt, len(members))
        for idx in members:
            self.head_of[idx] = members[0]

    def _clear(self, head: int) -> _Unit:
        """Drop a work unit's claim file and tracking state."""
        unit = self.units.pop(head)
        if unit.worker is not None:
            try:
                (self.qdir / "claimed" / _task_name(head, unit.attempt, unit.worker)).unlink()
            except OSError:
                pass
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
        for name in _listdir(results_dir):
            parsed = _parse_task_name(name)
            if parsed is None:
                continue
            idx, attempt, _ = parsed
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
                    idx, attempt, _worker_error(idx, self.state.stage, doc),
                    str(doc.get("error_type")), str(doc.get("message")),
                )
            if accepted:
                self._resolve_member(idx)

    def _claims(self) -> "dict[tuple[int, int], str]":
        """The claiming worker of every claimed ``(head, attempt)``."""
        claims = {}
        for name in os.listdir(self.qdir / "claimed"):
            parsed = _parse_task_name(name)
            if parsed is not None:
                claims[parsed[:2]] = parsed[2]
        return claims

    def watch(self, now: float) -> None:
        """Track unit claims on the dispatcher's own clock.  Report a unit
        as lost when the worker that claimed it has exited, or when it
        left ``todo/`` and its claim vanished with no envelope for its
        unfinished members (a result write failed); report units past
        their wall-clock budget as timed out."""
        try:
            # todo/ is listed before claimed/: a unit renamed in between
            # is then seen in one of the two, never in neither.
            todo = set(os.listdir(self.qdir / "todo"))
            claims = self._claims()
        except OSError:
            return  # looked at again on the next poll
        timeout = self.state.timeout
        for head, unit in list(self.units.items()):
            worker = claims.get((head, unit.attempt))
            if worker is None:
                # With result files the worker simply finished between
                # our harvest and this scan.
                if _task_name(head, unit.attempt) not in todo and not any(
                    (self.qdir / "results" / _task_name(m, unit.attempt)).exists()
                    for m in unit.members
                ):
                    self._lost(head, "its claim vanished without its results")
                continue
            if unit.claimed_at is None:
                unit.worker, unit.claimed_at = worker, now
            if worker in self.exited:
                self._lost(head, f"worker {worker!r} exited holding it")
            # A unit executes its tasks back to back on one claim, so its
            # budget is the per-task budget times its issue size.
            elif timeout is not None and now - unit.claimed_at > timeout * unit.size:
                self._timed_out(head, timeout * unit.size)

    def worker_exited(self, worker: str) -> bool:
        """Harvest what an exited worker posted and mark it exited, so that
        :meth:`watch` reports every unit still claimed under its name as
        lost.  Returns whether the worker had claimed work in this queue."""
        self.harvest()
        self.exited.add(worker)
        try:
            held = worker in self._claims().values()
        except OSError:
            held = False
        return held or worker in self.posted_by

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

    def _lost(self, head: int, why: str) -> None:
        unit = self._clear(head)
        record_event(
            self.state,
            "worker-lost",
            f"work unit {head} ({len(unit.members)} unfinished tasks) was "
            f"lost: {why}; re-issuing them",
            index=head,
        )
        for idx in unit.members:
            self.run.lost(idx, unit.attempt)

    def issue_due(self) -> "str | None":
        """Re-issue ready tasks as singleton units; returns the reason to
        degrade to local execution when the queue filesystem is exhausted.

        A task whose index still heads a live unit (its siblings remain
        in flight under that head) waits until the unit drains, so
        queue-file names stay unambiguous."""
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
    dispatcher (``daemon=True``), each in a numbered *slot*, and the
    pipe through which they wake it after posting a result envelope.

    Forking skips a fresh interpreter's imports.  It is safe here
    although a monitored dispatcher runs a metrics-snapshot thread: a
    forked worker drops the registry that thread renders and never
    writes the snapshot file, so it takes no lock that thread may hold.
    """

    def __init__(self, root: Path, size: int, prefix: str):
        self.root = root
        self.prefix = prefix
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
            args=(str(self.root), name, self.prefix, os.getpid(), self.wake_r, self.wake_w),
            name=name,
            daemon=True,
        )
        proc.start()
        return proc

    def revive(self, queue: "_QueueRun") -> None:
        """Re-issue the claims of every worker that has exited, and fork a
        new worker into its slot unless the slot reached its
        :data:`_BARREN_EXITS` bound: a worker that exits without having
        claimed work in this queue counts towards it."""
        for slot, proc in enumerate(self.procs):
            if self.barren[slot] >= _BARREN_EXITS or proc.is_alive():
                continue
            if queue.worker_exited(proc.name):
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
# Worker side (forked local workers).
# ---------------------------------------------------------------------------


def _local_worker(root: str, name: str, prefix: str, dispatcher: int,
                  wake_r: int, wake_w: int) -> None:
    """Body of a forked local worker: shed the dispatcher's telemetry
    sinks, send output to /dev/null, and serve the dispatcher's queues
    until it is gone."""
    obs.shed()
    os.close(wake_r)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    sys.stdout = sys.stderr = open(devnull, "w", encoding="utf-8")
    chaos.declare_worker_process()
    set_worker_name(name)
    _Worker(Path(root) / "queues", name, prefix, dispatcher, wake_w).serve()


def _claim_next(qdir: Path, worker: str) -> "tuple[Path, int, int] | None":
    """Claim one work unit: rename a todo file into ``claimed/`` under a
    name that carries ``worker``.

    Exactly one worker wins each rename; losers see ``FileNotFoundError``
    and move on to the next file.  A unit file holds either a bare
    :class:`Task` or a list of consecutive tasks; the returned index is
    the unit's head (its first member).
    """
    for name in _listdir(qdir / "todo"):
        parsed = _parse_task_name(name)
        if parsed is None:
            continue
        index, attempt, _ = parsed
        target = qdir / "claimed" / _task_name(index, attempt, worker)
        try:
            os.rename(qdir / "todo" / name, target)
        except OSError:
            continue  # another worker won the race (or the queue closed)
        return target, index, attempt
    return None


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


class _Worker:
    """The loop of one local worker: claim units from its dispatcher's
    open queues, execute them under the dispatcher's shipped run context,
    and stream one envelope per task back.

    Chaos ``worker-lost`` faults may kill this process hard — that is the
    point of them.  When the dispatcher's run is monitored, the worker
    joins its event bus under its own name: a ``worker-start`` line,
    periodic ``heartbeat`` lines carrying host/pid/RSS and the
    tasks-per-second rate, and a ``worker-exit`` line once its dispatcher
    is gone.
    """

    def __init__(self, queues: Path, name: str, prefix: str, dispatcher: int, wake: int):
        self.queues = queues
        self.name = name
        self.prefix = prefix
        self.dispatcher = dispatcher
        self.wake = wake
        self.pulse = obs_events.Heartbeat("worker")
        #: Work units executed so far.
        self.done = 0
        #: Queue name, task function, stage and experiment of the bundle
        #: installed last.
        self.bundle: "tuple[str, Any, str, str | None] | None" = None

    def serving(self) -> bool:
        """Whether the dispatcher (this process's parent) is alive."""
        return os.getppid() == self.dispatcher

    def serve(self) -> None:
        while self.serving():
            self.pulse.beat(tasks=self.done, worker=self.name)
            done_before = self.done
            for name in _listdir(self.queues):
                if name.startswith(self.prefix):
                    self._drain(self.queues / name)
            if self.done == done_before:
                time.sleep(_WORKER_POLL)
        obs_events.emit("worker-exit", worker=self.name, tasks=self.done)

    def _drain(self, qdir: Path) -> None:
        """Claim and execute units of one open queue until its todo pile
        is empty or the dispatcher is gone."""
        try:
            manifest = json.loads((qdir / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if manifest.get("status") != "open" or not self._adopt(qdir):
            return
        while self.serving():
            claim = _claim_next(qdir, self.name)
            if claim is None:
                return
            self._execute(qdir, *claim)
            self.done += 1
            self.pulse.beat(tasks=self.done, worker=self.name)

    def _adopt(self, qdir: Path) -> bool:
        """Install a queue's shipped run context and shared context, once
        per queue; whether its bundle loaded."""
        if self.bundle is not None and self.bundle[0] == qdir.name:
            return True
        try:
            doc = pickle.loads((qdir / "bundle.pkl").read_bytes())
            run = doc["run"]
            if run.events is not None and obs.current().events is None:
                obs.install(replace(
                    obs.current(),
                    events=obs_events.EventBus(run.events, f"worker-{self.name}"),
                ))
                obs_events.emit("worker-start", worker=self.name)
            adopt_run(run, doc["context"])
        except Exception:
            return False  # a half-removed queue
        self.bundle = (qdir.name, doc["fn"], doc["stage"], doc["experiment"])
        return True

    def _execute(self, qdir: Path, claimed: Path, head: int, attempt: int) -> None:
        """Execute one claimed work unit and post one envelope per member
        task.  Never raises: every failure becomes an envelope.

        Member envelopes carry the *unit's* attempt number (the
        dispatcher issued every member at that attempt) and are written
        before the claim is removed, so a claim that vanished with no
        envelope for an unfinished member means its result write failed.
        A claim left behind by a dead worker is blamed through its exit.
        """
        _, fn, stage, experiment = self.bundle
        try:
            try:
                unit = pickle.loads(claimed.read_bytes())
            except Exception as exc:
                # The unit file itself is unreadable: report on the head;
                # the other members come back as lost once the claim is gone.
                self._post(qdir, stage, head, attempt, _envelope(self.name, attempt, error=exc))
                return
            for task in unit if isinstance(unit, list) else [unit]:
                try:
                    payload = _envelope(
                        self.name, attempt, execute_task(fn, task, stage, experiment)
                    )
                except Exception as exc:
                    payload = _envelope(self.name, attempt, error=exc)
                self._post(qdir, stage, task.index, attempt, payload)
        finally:
            try:
                claimed.unlink()
            except OSError:
                pass

    def _post(self, qdir: Path, stage: str, index: int, attempt: int, payload: bytes) -> None:
        """Write one result envelope and wake the dispatcher."""
        try:
            chaos.on_write("dispatch.result", stage, index)
            atomic_write_bytes(qdir / "results" / _task_name(index, attempt), payload)
        except OSError:
            return  # the dispatcher re-issues what lost its result
        try:
            os.write(self.wake, b"\0")
        except OSError:
            pass  # the pipe is full (a wake is pending) or the dispatcher is gone
