"""Serial backend — a plain loop in the calling process.

The reference implementation of the backend protocol: every other
backend must produce exactly the results this loop produces.  It runs
each task in task order, reports the outcome to the shared
:class:`~repro.engine.backends.lifecycle.StageRun`, and sleeps until a
retry is due; per-task wall-clock timeouts cannot be enforced
in-process and are ignored (documented in ``map_tasks``).  The same
loop is the *degrade-local* fallback of the process backends
(:func:`degrade_local`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.engine.backends.base import (
    ExecutionBackend,
    RunState,
    execute_task,
    record_event,
    set_worker_context,
)
from repro.engine.backends.lifecycle import StageRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = ["SerialBackend", "degrade_local", "run_local"]


def run_local(run: StageRun) -> None:
    """Execute every unresolved task of ``run`` in this process, in task
    order, each until the lifecycle resolves it."""
    previous = set_worker_context(run.state.context)
    try:
        for idx in run.order:
            while idx in run.due:
                wait = run.due[idx] - run.clock()
                if wait > 0:
                    time.sleep(wait)
                attempt = run.issue(idx)
                try:
                    outcome = execute_task(
                        run.state.fn, run.tasks[idx], run.stage, run.state.experiment
                    )
                except Exception as exc:
                    run.raised(idx, attempt, exc)
                else:
                    run.succeeded(idx, attempt, outcome)
    finally:
        set_worker_context(previous)


def degrade_local(run: StageRun, detail: str) -> None:
    """The degrade-local fallback: record why, take back every in-flight
    execution, and run the rest of the stage in this process."""
    record_event(run.state, "degraded-serial", detail)
    for idx in sorted(run.inflight):
        run.withdraw(idx)
    run_local(run)


class SerialBackend(ExecutionBackend):
    """Execute every pending task in the calling process, in task order."""

    name = "serial"

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        run_local(StageRun(state, pending, results))
