"""Shared machinery of every execution backend.

An :class:`ExecutionBackend` turns a list of pending
:class:`~repro.engine.executor.Task` objects into settled results under
one :class:`RunState` (the resolved knobs of a ``map_tasks`` call).
Everything that must behave identically no matter *where* a task runs
lives here:

* :func:`execute_task` — the instrumented task invocation (chaos hooks,
  telemetry buffers, wall-clock) that runs in whatever process executes
  the task;
* :class:`TaskEnvelope` — the result wrapper that carries worker-side
  telemetry (and the worker's identity) back to the dispatching process;
* :func:`settle_success` / :func:`settle_failure` — the single settle
  path (metric merge, task span, journal record, failure report) the
  shared task lifecycle (:mod:`~repro.engine.backends.lifecycle`)
  funnels every outcome through, in task order;
* :func:`shipped_run` / :func:`adopt_run` — the dispatching process's
  :class:`~repro.run_context.RunContext`, shipped whole by the process
  pool's initializer and by each dispatch queue's ``bundle.pkl``, and
  installed by the worker together with the stage's shared context;
* :func:`shed_parent_state` — what a *forked* worker (pool or local
  dispatch) drops first: the telemetry sinks and profiler hook it
  inherited from the dispatching process.

The determinism contract is enforced by this split: task randomness
rides on the tasks (spawned seeds), the run's settings ship as one
context, and results settle in task order — so serial, process-pool,
and dispatch execution produce bit-identical aggregates.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.engine import chaos
from repro.engine.faults import RetryPolicy, RunReport, TaskFailure
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
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
    "shed_parent_state",
    "shipped_run",
    "worker_name",
]

#: Per-process shared state installed by ``map_tasks``'s ``context``
#: argument — set once per worker (pool initializer, dispatch-queue
#: ``bundle.pkl``, or around the serial loop) and read back with
#: :func:`get_worker_context`.
_WORKER_CONTEXT: Any = None

#: Identity of this worker process on task spans (``None`` in the main
#: process; ``pool-<pid>`` in pool workers; the ``repro worker`` name in
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


def observing() -> bool:
    """Whether task executions should ship telemetry envelopes: metrics
    are being collected, or task spans are wanted (by a local tracer or
    for stitching into the dispatcher's trace)."""
    run = current_run()
    return (
        run.metrics
        or run.spans
        or obs_metrics.collecting()
        or obs_trace.current_tracer() is not None
    )


def shipped_run() -> RunContext:
    """The run context workers install: this process's, with each
    telemetry switch also on where a sink installed here wants the
    workers' share (a metrics registry, a tracer, an event bus)."""
    run = current_run()
    return replace(
        run,
        metrics=run.metrics or obs_metrics.collecting(),
        spans=run.spans or obs_trace.current_tracer() is not None,
        events=run.events or obs_events.current_events_dir(),
    )


def adopt_run(run: RunContext, context: Any) -> None:
    """Install a shipped run context and the stage's shared context in
    this worker, and join the run's event bus when it is monitored."""
    install_run(run)
    set_worker_context(context)
    if run.events is not None:
        obs_events.ensure_bus(run.events, role="worker")


def shed_parent_state() -> None:
    """Drop what a forked worker inherited from the dispatching process,
    so it starts in the state a freshly started ``repro worker`` has.

    * the event bus: its writes would land in the parent's file under
      the parent's identity;
    * the trace writer: workers *buffer* spans for the dispatcher to
      stitch, and a forked id counter writing the trace file itself
      would collide with the parent's span ids;
    * the metrics sink: worker metrics travel on task envelopes;
    * the profiler hook of the stage the fork happened in (``--profile``),
      which would otherwise time every task under cProfile and never be
      dumped.

    Called first thing by the pool initializer and by every forked local
    dispatch worker; :func:`adopt_run` then installs what the worker
    shares with the dispatcher.
    """
    obs_events.install(None)
    obs_trace.install_tracer(None)
    obs_metrics.install(None)
    obs_profile.shed()


@dataclass
class TaskEnvelope:
    """A task result plus the telemetry measured where it executed.

    When metrics collection is on, workers ship their buffered counter
    deltas (plus the task's wall-clock and the worker's identity) back
    to the dispatching process on this envelope; :func:`settle_success`
    unwraps it, so journals, failure handling, and driver aggregation
    only ever see the raw value — the envelope can never leak into
    result bytes.
    """

    value: Any
    metrics: "obs_metrics.MetricsRegistry | None"
    seconds: float
    worker: "str | None" = None
    #: Spans collected where the task executed, for cross-process trace
    #: stitching: ``None`` = nothing traced the task (the run is
    #: untraced), ``[]`` = the task span was already emitted in place (a
    #: real tracer was installed), a non-empty list = a
    #: :class:`~repro.obs.trace.SpanCollector` buffer for
    #: :func:`~repro.obs.trace.emit_subtree`.
    spans: "list[dict[str, Any]] | None" = None


def execute_task(fn: "Callable[[Task], Any]", task: "Task", stage: str) -> Any:
    """Run one task with chaos + telemetry instrumentation (executes in
    the worker).  Successful executions return a :class:`TaskEnvelope`
    when metrics are being collected; failed attempts drop their buffer
    (only metrics of executions that produced a result are aggregated,
    which keeps the merged totals identical across worker counts).

    When tracing is on, the task's span is opened *here*, in the
    executing process: with a local tracer (serial backend) it emits in
    place; in a worker it is buffered by a
    :class:`~repro.obs.trace.SpanCollector` — together with any spans
    the task function itself opened — and shipped back on the envelope
    for stitching, so distributed traces keep every worker's subtree.
    """
    chaos.set_current_task(stage, task.index)
    collect = observing()
    previous = obs_metrics.begin_task() if collect else None
    collector: "obs_trace.SpanCollector | None" = None
    prev_tracer = None
    start = time.perf_counter()
    try:
        obs_events.emit("task-start", stage=stage, index=task.index)
        chaos.on_task_start(stage, task.index)
        if obs_trace.current_tracer() is None and current_run().spans:
            collector = obs_trace.SpanCollector()
            prev_tracer = obs_trace.install_tracer(collector)
        if obs_trace.current_tracer() is not None:
            meta: "dict[str, Any]" = {"index": task.index, "stage": stage}
            if _WORKER_NAME is not None:
                meta["worker"] = _WORKER_NAME
            with obs_trace.span(f"task-{task.index}", kind="task", **meta):
                value = fn(task)
        else:
            value = fn(task)
    finally:
        if collector is not None:
            obs_trace.install_tracer(prev_tracer)
        chaos.set_current_task(None, None)
        delta = obs_metrics.end_task(previous) if collect else None
    if not collect:
        return value
    spans = collector.records if collector is not None else (
        [] if obs_trace.current_tracer() is not None else None
    )
    return TaskEnvelope(value, delta, time.perf_counter() - start, _WORKER_NAME, spans)


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


def settle_success(state: RunState, task: "Task", outcome: Any) -> Any:
    """Unwrap a telemetry envelope (merge metrics, emit the task span),
    journal the raw value, and return it.  The journal always stores the
    unwrapped value, so a checkpointed run resumes identically whether
    telemetry was on or off when it recorded."""
    if isinstance(outcome, TaskEnvelope):
        value = outcome.value
        obs_metrics.merge_task_metrics(outcome.metrics)
        obs_metrics.observe("executor.task_seconds", outcome.seconds)
        if outcome.spans:
            # A worker collected the task's span subtree: stitch it into
            # the local trace with fresh ids under the open stage span.
            obs_trace.emit_subtree(outcome.spans)
        # spans == [] means the span already emitted where it executed,
        # and None that nothing traced it: a traced dispatcher ships
        # every worker a run context with its spans switch on.
        obs_events.emit(
            "task-done",
            stage=state.stage,
            index=task.index,
            seconds=round(outcome.seconds, 6),
            worker=outcome.worker,
            experiment=obs_trace.current_experiment(),
        )
    else:
        value = outcome
        obs_events.emit(
            "task-done",
            stage=state.stage,
            index=task.index,
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
