"""Deterministic, fault-tolerant task executor for experiment sweeps.

Every experiment sweep (networks × seeds × trials) is expressed as a
list of :class:`Task` objects mapped through a pure task function with
:func:`map_tasks`.  Execution is delegated to a pluggable backend (see
:mod:`repro.engine.backends`):

* **serial** — a plain loop in the calling process (the reference
  implementation);
* **pool** — a local :class:`concurrent.futures.ProcessPoolExecutor`;
* **dispatch** — a multi-host work-stealing file queue served by
  ``repro worker`` processes sharing a runs root;
* **auto** (the default) — serial for ``jobs <= 1`` or single-task
  sweeps, the pool otherwise (the historical behaviour).

Determinism contract: a task function may only draw randomness from its
task — either the task's ``seed`` (a child
:class:`~numpy.random.SeedSequence` spawned from the experiment's root
seed) or streams re-derived inside the worker from seeds in the payload
(e.g. via :class:`repro.utils.rng.RngFactory`).  Results are settled in
task order regardless of completion order, and aggregation happens in
that fixed order, so any backend at any worker count — including
workers on other hosts, including workers that die mid-task — produces
bit-identical results.

Shared read-only state (a config, a generated network list, a channel
spec) can be passed once per worker through ``map_tasks(..., context=...)``
instead of being pickled into every task payload: process backends ship
it next to the run context (pool initializer / dispatch-queue
``bundle.pkl``) and task functions read it back with :func:`get_worker_context`.
Context must never carry randomness — seeds stay on the tasks, so the
backend invariance is unaffected.

Fault tolerance (see :mod:`repro.engine.faults`): ``map_tasks`` accepts
an error policy (``on_error="raise" | "skip" | "retry"``), a per-task
wall-clock ``timeout`` for the process backends, a
:class:`~repro.engine.faults.RetryPolicy` (exponential backoff with
deterministic jitter), and a :class:`~repro.engine.journal.RunJournal`
for checkpoint/resume.  Under ``skip``/``retry`` a task that ultimately
cannot produce a result occupies its slot with a structured
:class:`~repro.engine.faults.TaskFailure` instead of raising, a hung
task is abandoned after its budget, and a dying worker's task is
re-issued (and quarantined once it has killed ``quarantine_after``
workers) rather than discarding the sweep — one policy for every
backend, :mod:`repro.engine.backends.lifecycle`.  None of this touches
task randomness, so a journaled run interrupted at any point resumes to
the bit-identical aggregate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from repro.engine.faults import (
    ON_ERROR_MODES,
    RetryPolicy,
    current_policy,
)
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import StageTimer  # re-export: spans subsume stage timing
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.journal import RunJournal

__all__ = [
    "Task",
    "StageTimer",
    "get_worker_context",
    "make_tasks",
    "map_tasks",
    "resolve_jobs",
]

#: Sanity cap for ``--jobs``: far above any real core count, far below
#: values that would fork-bomb the host.
JOBS_CAP = max(64, 4 * (os.cpu_count() or 1))


@dataclass(frozen=True)
class Task:
    """One unit of an experiment sweep.

    Attributes
    ----------
    index:
        Position in the sweep; results are aggregated in this order and
        the journal keys checkpointed results by it.
    payload:
        Whatever the task function needs (must be picklable for the
        process backends — configs, indices, arrays are all fine).
    seed:
        Child :class:`~numpy.random.SeedSequence` spawned from the
        experiment's root seed; ``None`` for deterministic tasks.
    """

    index: int
    payload: Any
    seed: "np.random.SeedSequence | None" = None


def make_tasks(
    payloads: Iterable[Any],
    *,
    root_seed: "int | np.random.SeedSequence | RngFactory | None" = None,
    name: str = "task",
) -> list[Task]:
    """Wrap ``payloads`` into :class:`Task` objects with spawned seeds.

    When ``root_seed`` is given, task ``i`` carries the child sequence
    ``RngFactory(root_seed).seed_sequence(name, i)`` — the same derivation
    no matter which process later consumes it.
    """
    items = list(payloads)
    if root_seed is None:
        return [Task(i, p) for i, p in enumerate(items)]
    factory = root_seed if isinstance(root_seed, RngFactory) else RngFactory(root_seed)
    return [Task(i, p, factory.seed_sequence(name, i)) for i, p in enumerate(items)]


def resolve_jobs(jobs: "int | None") -> int:
    """Normalise and validate a ``--jobs`` value.

    ``None``/``0`` means all CPUs; negative values and values beyond
    :data:`JOBS_CAP` (= ``max(64, 4 × CPUs)``) are rejected with a clear
    error instead of spawning a nonsensical worker fleet.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs > JOBS_CAP:
        raise ValueError(
            f"jobs={jobs} exceeds the sanity cap {JOBS_CAP} "
            "(= max(64, 4 x CPU count)); pass 0 to use every core"
        )
    return int(jobs)


def get_worker_context() -> Any:
    """The shared object passed as ``map_tasks(..., context=...)``.

    Valid only inside a task function during a :func:`map_tasks` call
    that supplied a context; returns ``None`` otherwise.
    """
    from repro.engine.backends import base

    return base.get_worker_context()


def map_tasks(
    fn: Callable[[Task], Any],
    tasks: Sequence[Task],
    *,
    jobs: "int | None" = 1,
    context: Any = None,
    stage: str = "sweep",
    on_error: "str | None" = None,
    timeout: "float | None" = None,
    retry: "RetryPolicy | None" = None,
    journal: "RunJournal | None" = None,
    executor: Any = None,
    quarantine_after: "int | None" = None,
) -> list[Any]:
    """Apply ``fn`` to every task, returning results in task order.

    ``fn`` must be a module-level function and each task payload
    picklable when a process backend runs it (for the dispatch backend
    ``fn`` must additionally be importable on the worker hosts — it is
    pickled by reference).

    ``context`` is shared read-only state shipped **once per worker**
    (with the run context) rather than pickled into every task;
    task functions retrieve it with :func:`get_worker_context`.  On the
    serial backend it is installed around the loop, so task functions
    behave identically on every backend.

    ``executor`` picks the backend: one of the
    :data:`~repro.engine.faults.EXECUTOR_MODES` strings (``"auto"``,
    ``"serial"``, ``"pool"``, ``"dispatch"``) or a configured
    :class:`~repro.engine.backends.ExecutionBackend` instance.  The
    default defers to the ambient policy and falls back to ``"auto"``
    — serial for ``jobs <= 1`` or single-task sweeps, the process pool
    otherwise.

    Fault knobs (each defaults to the ambient
    :class:`~repro.engine.faults.ExecutionPolicy` installed by
    :func:`~repro.engine.faults.execution_scope`, or to the strict
    legacy behaviour when no policy is active):

    ``stage``
        Names this sweep for the journal and failure records; a driver
        calling ``map_tasks`` more than once must use distinct names.
    ``on_error``
        ``"raise"`` propagates the first exception (legacy behaviour);
        ``"skip"`` captures failures as :class:`TaskFailure` slots;
        ``"retry"`` re-runs a failed task with exponential backoff and
        deterministic jitter before giving up to a :class:`TaskFailure`.
    ``timeout``
        Per-task wall-clock budget in seconds, enforced on the process
        backends (the pool is restarted around a hung task; the
        dispatcher abandons the attempt and ignores its late result;
        the serial backend cannot preempt and ignores it).
    ``journal``
        A :class:`~repro.engine.journal.RunJournal`: completed results
        are checkpointed as they land, previously recorded results are
        replayed without re-execution, and only missing tasks run.
    ``quarantine_after``
        Poison-task circuit breaker (``--quarantine-after``): a task
        whose execution kills its worker this many times is settled as
        ``TaskFailure(kind="quarantined")`` instead of being re-issued,
        so the rest of the sweep completes.
    """
    from repro.engine.backends import resolve_executor
    from repro.engine.backends.base import RunState

    policy = current_policy()
    on_error = on_error if on_error is not None else (policy.on_error if policy else "raise")
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
    timeout = timeout if timeout is not None else (policy.timeout if policy else None)
    retry = retry if retry is not None else (policy.retry if policy else RetryPolicy())
    journal = journal if journal is not None else (policy.journal if policy else None)
    if executor is None:
        executor = policy.executor if policy is not None else "auto"
    if quarantine_after is None:
        quarantine_after = policy.quarantine_after if policy else 3
    if quarantine_after < 1:
        raise ValueError(f"quarantine_after must be >= 1, got {quarantine_after}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")

    items = list(tasks)
    results: "dict[int, Any]" = {}
    if journal is not None:
        replayed = journal.load_stage(stage, len(items))
        if replayed:
            obs_metrics.add("journal.tasks_replayed", len(replayed))
        results.update(replayed)
    pending = [t for t in items if t.index not in results]

    n_jobs = resolve_jobs(jobs)
    obs_metrics.add("executor.tasks", len(items))
    if pending:
        state = RunState(
            fn=fn,
            stage=stage,
            context=context,
            on_error=on_error,
            retry=retry,
            timeout=timeout,
            journal=journal,
            report=policy.report if policy else None,
            n_jobs=n_jobs,
            quarantine_after=int(quarantine_after),
        )
        backend = resolve_executor(executor, n_jobs, len(pending))
        obs_metrics.add("executor.tasks_executed", len(pending))
        # No per-backend counter here: counters are jobs-invariant by
        # contract, and the backend choice depends on --jobs.  Which
        # backend ran is recorded in summary.json and on task spans.
        obs_events.emit(
            "stage-start",
            stage=stage,
            tasks=len(items),
            pending=len(pending),
            replayed=len(items) - len(pending),
            backend=backend.name,
            experiment=obs_trace.current_experiment(),
        )
        backend.run(state, pending, results)
        obs_events.emit(
            "stage-done",
            stage=stage,
            tasks=len(items),
            experiment=obs_trace.current_experiment(),
        )
    return [results[t.index] for t in items]
