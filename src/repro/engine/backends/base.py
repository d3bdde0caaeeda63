"""Shared machinery of every execution backend.

An :class:`ExecutionBackend` turns a list of pending
:class:`~repro.engine.executor.Task` objects into settled results under
one :class:`RunState` (the resolved knobs of a ``map_tasks`` call).
Everything that must behave identically no matter *where* a task runs
lives here:

* :func:`execute_task` — the instrumented task invocation (chaos hooks,
  and a telemetry :func:`~repro.obs.capture` when the run is observed)
  that runs in whatever process executes the task;
* :class:`TaskEnvelope` — the result wrapper that carries the task's
  :class:`~repro.obs.Captured` record back to the dispatching process;
* :func:`settle_success` / :func:`settle_failure` — the single settle
  path (telemetry adoption, journal record, failure report) the
  shared task lifecycle (:mod:`~repro.engine.backends.lifecycle`)
  funnels every outcome through, in task order;
* :func:`shipped_run` / :func:`adopt_run` — the dispatching process's
  :class:`~repro.run_context.RunContext`, shipped whole by the process
  pool's initializer and by each dispatch queue's ``bundle.pkl``, and
  installed by the worker together with the stage's shared context.
  A *forked* worker (pool or local dispatch) first drops the telemetry
  sinks it inherited, with :func:`repro.obs.shed`.

The determinism contract is enforced by this split: task randomness
rides on the tasks (spawned seeds), the run's settings ship as one
context, and results settle in task order — so serial, process-pool,
and dispatch execution produce bit-identical aggregates.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.engine import chaos
from repro.engine.faults import RetryPolicy, RunReport, TaskFailure
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.run_context import RunContext, current_run, install_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task
    from repro.engine.journal import RunJournal

__all__ = [
    "ExecutionBackend",
    "RunState",
    "TaskEnvelope",
    "adopt_run",
    "execute_task",
    "get_worker_context",
    "record_event",
    "set_worker_name",
    "settle_failure",
    "settle_success",
    "shipped_run",
    "worker_name",
]

#: Per-process shared state installed by ``map_tasks``'s ``context``
#: argument — set once per worker (pool initializer, dispatch-queue
#: ``bundle.pkl``, or around the serial loop) and read back with
#: :func:`get_worker_context`.
_WORKER_CONTEXT: Any = None

#: Identity of this worker process on task spans (``None`` in the main
#: process; ``pool-<pid>`` in pool workers; ``local-<pid>-<slot>`` in
#: dispatch workers).
_WORKER_NAME: "str | None" = None


def get_worker_context() -> Any:
    """The shared object passed as ``map_tasks(..., context=...)``.

    Valid only inside a task function during a :func:`map_tasks` call
    that supplied a context; returns ``None`` otherwise.
    """
    return _WORKER_CONTEXT


def set_worker_context(context: Any) -> Any:
    """Install the per-process shared context; returns the previous one."""
    global _WORKER_CONTEXT
    previous = _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    return previous


def set_worker_name(name: "str | None") -> None:
    """Declare this process's worker identity (attached to task spans)."""
    global _WORKER_NAME
    _WORKER_NAME = name


def worker_name() -> "str | None":
    """This process's worker identity (``None`` in the main process)."""
    return _WORKER_NAME


def shipped_run() -> RunContext:
    """The run context workers install: this process's, with each
    telemetry switch also on where a sink installed here wants the
    workers' share (a metrics registry, a tracer, an event bus)."""
    run, sinks = current_run(), obs.current()
    return replace(
        run,
        metrics=run.metrics or sinks.metrics is not None,
        spans=run.spans or sinks.tracer is not None,
        events=run.events or (str(sinks.events.directory) if sinks.events else None),
    )


def adopt_run(run: RunContext, context: Any) -> None:
    """Install a shipped run context and the stage's shared context in
    this worker, and join the run's event bus when it is monitored."""
    install_run(run)
    set_worker_context(context)
    if run.events is not None:
        obs_events.ensure_bus(run.events, role="worker")


@dataclass
class TaskEnvelope:
    """A task result plus the telemetry captured where it executed.

    :func:`settle_success` unwraps it, so journals, failure handling,
    and driver aggregation only ever see the raw value — the envelope
    can never leak into result bytes.  Tasks of a run with no telemetry
    on return their bare value instead.
    """

    value: Any
    captured: "obs.Captured"


def execute_task(
    fn: "Callable[[Task], Any]",
    task: "Task",
    stage: str,
    experiment: "str | None" = None,
) -> Any:
    """Run one task with chaos + telemetry instrumentation (executes in
    the worker).  ``experiment`` is the id of the experiment whose
    driver opened the stage, which chaos faults may name.  When the run
    is observed, the task runs under
    :func:`repro.obs.capture` and a :class:`TaskEnvelope` ships the
    record back; a failed attempt ships nothing (only executions that
    produced a result are adopted, which keeps the merged totals
    identical across worker counts).

    When tracing is on, the task's span is opened *here*, in the
    executing process: with a local tracer (serial backend) it emits in
    place; in a worker it lands in the capture's span collector —
    together with any spans the task function itself opened — for
    stitching, so distributed traces keep every worker's subtree.
    """
    chaos.set_current_task(stage, task.index, experiment)
    try:
        with obs.capture(worker=_WORKER_NAME) if obs.observing() else nullcontext() as captured:
            obs_events.emit("task-start", stage=stage, index=task.index)
            chaos.on_task_start(stage, task.index, experiment)
            if obs.current().tracer is None:
                value = fn(task)
            else:
                meta: "dict[str, Any]" = {"index": task.index, "stage": stage}
                if _WORKER_NAME is not None:
                    meta["worker"] = _WORKER_NAME
                with obs_trace.span(f"task-{task.index}", kind="task", **meta):
                    value = fn(task)
    finally:
        chaos.set_current_task(None, None)
    return value if captured is None else TaskEnvelope(value, captured)


@dataclass
class RunState:
    """Resolved knobs of one ``map_tasks`` call, handed to the backend."""

    fn: "Callable[[Task], Any]"
    stage: str
    context: Any
    on_error: str
    retry: RetryPolicy
    timeout: "float | None"
    journal: "RunJournal | None"
    report: "RunReport | None"
    n_jobs: int = 1
    #: Poison-task circuit breaker: after this many worker deaths
    #: (counting the journal's) a task is quarantined instead of re-issued.
    quarantine_after: int = 3
    #: Id of the experiment whose driver opened the stage; it travels
    #: with the stage to wherever a task runs (chaos faults may name it).
    experiment: "str | None" = None


def settle_success(state: RunState, task: "Task", outcome: Any) -> Any:
    """Unwrap a telemetry envelope (adopt its captured record), journal
    the raw value, and return it.  The journal always stores the
    unwrapped value, so a checkpointed run resumes identically whether
    telemetry was on or off when it recorded."""
    fields: "dict[str, Any]" = {}
    value = outcome
    if isinstance(outcome, TaskEnvelope):
        value, captured = outcome.value, outcome.captured
        # Metrics merge under the experiment's prefix, and a worker's
        # spans are stitched under the open stage span.
        captured.adopt()
        obs_metrics.observe("executor.task_seconds", captured.seconds)
        fields = {"seconds": round(captured.seconds, 6), "worker": captured.worker}
    obs_events.emit(
        "task-done",
        stage=state.stage,
        index=task.index,
        **fields,
        experiment=obs_trace.current_experiment(),
    )
    if state.journal is not None:
        state.journal.record(state.stage, task.index, value)
    return value


def settle_failure(state: RunState, failure: TaskFailure) -> TaskFailure:
    """Record a terminal task failure everywhere it must be visible."""
    obs_metrics.add("executor.task_failures")
    obs_events.emit(
        "task-failed",
        stage=failure.stage,
        index=failure.index,
        fail_kind=failure.kind,
        error_type=failure.error_type,
        attempts=failure.attempts,
        experiment=obs_trace.current_experiment(),
    )
    if state.report is not None:
        state.report.record_failure(failure)
    if state.journal is not None:
        state.journal.log_failure(failure)
    warnings.warn(failure.describe(), stacklevel=3)
    return failure


def record_event(state: RunState, kind: str, detail: str, **extra) -> None:
    """Record a degradation event (timeout, pool-broken, worker-lost...)."""
    obs_metrics.add("executor.events." + kind)
    obs_events.emit(kind, stage=state.stage, detail=detail, **extra)
    warnings.warn(f"{kind}: {detail}", stacklevel=3)
    if state.report is not None:
        state.report.record_event(kind, detail, stage=state.stage, **extra)


class ExecutionBackend:
    """Protocol of an execution backend.

    A backend receives the resolved :class:`RunState`, the pending tasks
    (journal-replayed results already removed), and the mutable
    ``results`` mapping to fill — one entry per pending task index,
    holding either the task's value or a
    :class:`~repro.engine.faults.TaskFailure`.  Backends are transports:
    they report what happens to each execution to a
    :class:`~repro.engine.backends.lifecycle.StageRun`, which decides
    every fault and settles every outcome, and they never touch task
    randomness, so any backend at any worker count produces
    bit-identical aggregates.
    """

    #: Short name used by ``--executor`` and the ambient policy.
    name = "abstract"

    def run(
        self,
        state: RunState,
        pending: "list[Task]",
        results: "dict[int, Any]",
    ) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (dispatch workers, queues)."""
