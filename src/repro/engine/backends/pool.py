"""Process-pool backend — :class:`concurrent.futures.ProcessPoolExecutor`.

A transport for the shared task lifecycle
(:mod:`~repro.engine.backends.lifecycle`): workers are initialised with
the dispatcher's :class:`~repro.run_context.RunContext` and the stage's
shared context, every task the lifecycle makes ready is
submitted to one pool that lives across retries, and futures are
awaited oldest submission first.  What the pool observes goes back to
the lifecycle as an event — a result, an exception, a blown wall-clock
budget (the pool is torn down so the hung worker stops), or a worker
death that broke the pool.  The pool is rebuilt only after such a
break or timeout.

Blaming a worker death: every submission runs under an *in-flight
marker* (a file named for the task index, holding the worker's pid)
that the worker removes when the task settles — so when a worker death
breaks the pool, the surviving markers identify exactly which tasks
were executing, and matching their pids against the dead workers'
identifies which of those to blame.  Blamed tasks are reported lost
(the lifecycle re-issues them, and quarantines one that keeps killing
its worker); the innocent ones are re-issued at no cost.  A break no
marker explains cannot be attributed to any task, so the stage
degrades to running the rest in this process.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
# A distinct class from the builtin ``TimeoutError`` before Python 3.11.
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import TYPE_CHECKING, Any

from repro import obs
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
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = ["ProcessPoolBackend", "init_worker", "kill_pool"]


def init_worker(run, context) -> None:
    """Pool initializer: shed the telemetry sinks a forked worker
    inherits, install the dispatcher's run context and the stage's
    shared context, and declare this process's identity for task spans."""
    obs.shed()
    adopt_run(run, context)
    set_worker_name(f"pool-{os.getpid()}")


def _marker_path(marker_dir: str, index: int) -> str:
    return os.path.join(marker_dir, f"inflight-{int(index):06d}")


def _execute_marked(marker_dir: str, fn, task, stage: str, experiment: "str | None"):
    """Run one task under an in-flight marker (executes in the worker).

    The marker (named for the task index, holding this worker's pid) is
    removed however the task settles — return or raise — so it survives
    only a hard worker death (``SIGKILL``, ``os._exit``), which is
    precisely the signal the dispatching process needs to blame the
    right task when the pool breaks.  Marker I/O is best effort: a full
    disk costs blame precision, never the task.
    """
    path = _marker_path(marker_dir, task.index)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
    except OSError:
        path = None
    try:
        return execute_task(fn, task, stage, experiment)
    finally:
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:  # already gone
            pass


class ProcessPoolBackend(ExecutionBackend):
    """Execute pending tasks on a local pool of worker processes."""

    name = "pool"

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        run = StageRun(state, pending, results)
        pool: "ProcessPoolExecutor | None" = None
        marker_dir = ""
        #: attempt and future of every in-flight task, in submission order
        inflight: "dict[int, tuple[int, Future]]" = {}
        try:
            while not run.done:
                for idx in run.ready():
                    if pool is None:
                        # A fresh marker directory per pool: markers a
                        # torn-down pool left behind can never be blamed.
                        marker_dir = tempfile.mkdtemp(prefix="repro-pool-inflight-")
                        pool = ProcessPoolExecutor(
                            max_workers=min(
                                max(state.n_jobs, 1), len(run.due) + len(run.inflight)
                            ),
                            initializer=init_worker,
                            initargs=(shipped_run(), state.context),
                        )
                    inflight[idx] = (run.issue(idx), pool.submit(
                        _execute_marked, marker_dir, state.fn, run.tasks[idx],
                        state.stage, state.experiment,
                    ))
                if not inflight:
                    time.sleep(max(0.0, run.next_due() - run.clock()))
                    continue
                abort = self._collect(run, inflight)
                if abort is None:
                    continue
                dead_pids = self._dead_pids(pool) if abort == "broken" else set()
                kill_pool(pool)
                pool = None
                if abort == "broken":
                    unresolved = len(run.due) + len(run.inflight)
                    record_event(
                        state,
                        "pool-broken",
                        "a worker process died and broke the pool "
                        f"({unresolved} task(s) unresolved)",
                    )
                    blamed = _blamed(marker_dir, inflight, dead_pids)
                    if not blamed:
                        degrade_local(
                            run,
                            f"re-executing the unfinished {unresolved} task(s) "
                            "on the serial backend",
                        )
                        return
                    for idx in blamed:
                        run.lost(idx, inflight.pop(idx)[0])
                    if not run.done:
                        obs_metrics.add("executor.pool_rebuilds")
                shutil.rmtree(marker_dir, ignore_errors=True)
                for idx in inflight:
                    run.withdraw(idx)
                inflight.clear()
            if pool is not None:
                pool.shutdown(wait=True)
                pool = None
        finally:
            if pool is not None:
                kill_pool(pool)
            if marker_dir:
                shutil.rmtree(marker_dir, ignore_errors=True)

    @staticmethod
    def _collect(
        run: StageRun, inflight: "dict[int, tuple[int, Future]]"
    ) -> "str | None":
        """Await the in-flight futures oldest submission first, reporting
        each outcome to the lifecycle.  Returns ``"broken"`` or
        ``"timeout"`` when the pool must be torn down — after reporting
        the futures that finished before it went down (their work must
        not be discarded) — else ``None``."""
        timeout = run.state.timeout
        abort = None
        for idx, (attempt, fut) in list(inflight.items()):
            if abort is not None and not fut.done():
                continue
            try:
                value = fut.result(timeout=timeout if abort is None else 0)
            except BrokenExecutor:
                abort = abort or "broken"
                continue
            except Exception as exc:
                del inflight[idx]
                if isinstance(exc, _FuturesTimeout) and not fut.done():
                    record_event(
                        run.state,
                        "timeout",
                        f"task {idx} exceeded its {timeout:g}s wall-clock "
                        "budget; restarting the worker pool",
                        index=idx,
                    )
                    run.timed_out(idx, attempt, timeout)
                    abort = "timeout"
                else:
                    run.raised(idx, attempt, exc)
            else:
                del inflight[idx]
                run.succeeded(idx, attempt, value)
        return abort

    @staticmethod
    def _dead_pids(pool: ProcessPoolExecutor) -> "set[int]":
        """Pids of workers that died on their own — not the survivors the
        broken pool itself terminated (``SIGTERM``) on its way down."""
        procs = list((getattr(pool, "_processes", None) or {}).values())
        return {p.pid for p in procs if p.exitcode not in (None, 0, -signal.SIGTERM)}


def _blamed(marker_dir: str, inflight: "dict[int, Any]",
            dead_pids: "set[int]") -> "list[int]":
    """In-flight task indices whose marker survived the break — narrowed
    to markers held by a worker that actually died, when the dead
    workers are identifiable (innocent tasks that were merely
    co-resident in the pool are not blamed)."""
    marked: "dict[int, int | None]" = {}
    for idx in inflight:
        try:
            with open(_marker_path(marker_dir, idx), encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        marked[idx] = int(text) if text.isdigit() else None
    blamed = [i for i, pid in marked.items() if pid in dead_pids]
    return sorted(blamed or marked)
