"""Execution engine: registry, deterministic executor, fault tolerance.

The engine is the layer between the experiment drivers and the CLI:

* :mod:`repro.engine.registry` — decorator-based registration of every
  DESIGN.md experiment (id, title, scale→config factory, runner), so the
  CLI and the benchmark suite discover experiments instead of
  hand-maintaining a table.
* :mod:`repro.engine.executor` — a ``map_tasks`` abstraction over
  pluggable execution backends (:mod:`repro.engine.backends`): serial,
  process-pool, and a file-queue dispatcher served by the worker
  processes it forks.  Each task carries a child
  :class:`numpy.random.SeedSequence` spawned from the experiment's root
  seed, so every backend at every worker count produces bit-identical
  results.
* :mod:`repro.engine.suite` — whole experiments as the process pool's
  tasks, for runs that select at least as many experiments as workers.
* :mod:`repro.engine.faults` — failure records, retry policy with
  deterministic backoff jitter, and the per-run execution policy.
* :mod:`repro.engine.journal` — incremental checkpointing of completed
  task results with atomic, checksummed records (``--resume``).
* :mod:`repro.engine.guards` — numerical validation of kernel outputs
  (NaN/Inf/probability-range) at configurable strictness.
* :mod:`repro.engine.chaos` — deterministic fault injection (crashes,
  hangs, corrupted records, NaN payloads) for exercising recovery paths.

Observability lives in its own layer (:mod:`repro.obs`): the executor
ships worker-side metric buffers back on task results and emits task
spans, the registry opens one experiment span per run, and
``StageTimer`` (re-exported here for compatibility) is the span-backed
stage timer from :mod:`repro.obs.trace`.
"""

from repro.engine.backends import (
    DispatchBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_executor,
)
from repro.engine.executor import StageTimer, Task, make_tasks, map_tasks, resolve_jobs
from repro.engine.faults import (
    EXECUTOR_MODES,
    ExecutionPolicy,
    RetryPolicy,
    RunReport,
    TaskFailure,
    completed,
    current_policy,
    execution_scope,
    is_failure,
    usable_results,
)
from repro.engine.journal import JournalError, RunJournal
from repro.engine.registry import (
    ExperimentSpec,
    all_specs,
    get_spec,
    register,
    scaled_config,
    seed_kwargs,
)

__all__ = [
    "DispatchBackend",
    "EXECUTOR_MODES",
    "ExecutionBackend",
    "ExecutionPolicy",
    "ExperimentSpec",
    "JournalError",
    "ProcessPoolBackend",
    "RetryPolicy",
    "RunJournal",
    "RunReport",
    "SerialBackend",
    "StageTimer",
    "Task",
    "TaskFailure",
    "all_specs",
    "resolve_executor",
    "completed",
    "current_policy",
    "execution_scope",
    "get_spec",
    "is_failure",
    "make_tasks",
    "map_tasks",
    "register",
    "resolve_jobs",
    "scaled_config",
    "seed_kwargs",
    "usable_results",
]
