"""Failure records, retry policy, and the per-run execution policy.

The executor's fault-tolerance knobs live here so that drivers, the
registry, and the CLI all speak the same vocabulary:

* :class:`TaskFailure` — the structured record that takes a failed
  task's slot in the :func:`~repro.engine.executor.map_tasks` result
  list when the run is configured to survive failures
  (``on_error="skip"`` or ``"retry"``) instead of raising.
* :class:`RetryPolicy` — exponential backoff with deterministic jitter
  (seeded from ``(task index, attempt)``, so two identical runs sleep
  identical schedules).
* :class:`ExecutionPolicy` — one bundle of all fault knobs (error
  policy, retry schedule, per-task timeout, journal) that the CLI
  installs for the duration of an experiment via
  :func:`execution_scope`; ``map_tasks`` reads the ambient policy so
  driver signatures stay unchanged.
* :class:`RunReport` — the mutable sink where the executor records
  failures and degradation events; the registry attaches its contents
  to the :class:`~repro.experiments.runner.ExperimentResult` so
  ``summary.json`` can mark incomplete runs.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.journal import RunJournal

__all__ = [
    "EXECUTOR_MODES",
    "ExecutionPolicy",
    "RetryPolicy",
    "RunReport",
    "TaskFailure",
    "completed",
    "current_policy",
    "execution_scope",
    "is_failure",
]

#: Valid ``on_error`` settings for :func:`~repro.engine.executor.map_tasks`.
ON_ERROR_MODES = ("raise", "skip", "retry")

#: Valid executor mode strings (``auto`` keeps the historical jobs-based
#: choice between serial and pool).  The dispatch backend has none: it
#: is always a configured instance.  Lives here rather than in
#: :mod:`repro.engine.backends` so the policy layer never imports
#: backend machinery.
EXECUTOR_MODES = ("auto", "serial", "pool")


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that could not produce a result.

    Attributes
    ----------
    index:
        The task's sweep index (its journal key).
    stage:
        The ``map_tasks`` stage name the task belonged to.
    kind:
        ``"error"`` (the task function raised), ``"timeout"`` (the
        process backend's wall-clock budget expired), or
        ``"quarantined"`` (the task killed its worker
        ``quarantine_after`` times and is no longer re-issued — the
        poison-task circuit breaker).
    error_type, message:
        Exception class name and message, where one exists.
    attempts:
        How many executions were tried before giving up (for a
        quarantined task, at least its worker-loss count: every loss
        was one execution).
    """

    index: int
    stage: str
    kind: str
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        detail = f": {self.message}" if self.message else ""
        return (
            f"task {self.index} (stage {self.stage!r}) {self.kind} after "
            f"{self.attempts} attempt(s) [{self.error_type}]{detail}"
        )

    def to_dict(self) -> "dict[str, Any]":
        return {
            "index": self.index,
            "stage": self.stage,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


def is_failure(obj: Any) -> bool:
    """Whether a ``map_tasks`` result slot holds a failure record."""
    return isinstance(obj, TaskFailure)


def completed(results) -> list:
    """The successful entries of a ``map_tasks`` result list, in order."""
    return [r for r in results if not is_failure(r)]


def usable_results(results, what: str) -> list:
    """The successful entries, or :class:`RuntimeError` when every slot
    failed — an all-failure sweep has nothing to aggregate and must not
    be rendered as a (vacuously zero) result table.

    Drivers divide their sums by ``len(usable_results(...))`` rather than
    the task count, so an ``on_error=skip`` run with lost tasks still
    reports unbiased means — over the surviving sample — while a clean
    run divides by exactly the task count and stays bit-identical to the
    pre-fault-tolerance aggregation.
    """
    good = completed(results)
    if not good:
        raise RuntimeError(
            f"all {len(list(results))} task(s) of {what} failed; see the "
            "fault report (or re-run with --on-error raise for the first "
            "traceback)"
        )
    return good


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attempt ``k`` (1-based) sleeps
    ``min(base_delay * 2**(k-1), max_delay) * (1 + jitter * u)`` before
    re-running, where ``u`` is a uniform draw seeded from
    ``(task index, attempt)`` — identical runs back off identically, and
    concurrent retries of different tasks de-synchronise.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("backoff delays and jitter must be non-negative")

    def delay(self, index: int, attempt: int) -> float:
        """Backoff before re-running ``index`` after failed ``attempt``."""
        base = min(self.base_delay * 2.0 ** max(attempt - 1, 0), self.max_delay)
        u = random.Random((int(index) << 20) ^ int(attempt)).random()
        return base * (1.0 + self.jitter * u)


class RunReport:
    """Mutable sink for the faults and degradations of one run."""

    def __init__(self) -> None:
        self.failures: "list[TaskFailure]" = []
        self.events: "list[dict[str, Any]]" = []

    def record_failure(self, failure: TaskFailure) -> None:
        self.failures.append(failure)

    def record_event(self, kind: str, detail: str, **extra: Any) -> None:
        self.events.append({"kind": kind, "detail": detail, **extra})

    @property
    def incomplete(self) -> bool:
        """Whether at least one task slot holds no result."""
        return bool(self.failures)

    def to_dict(self) -> "dict[str, Any]":
        doc: "dict[str, Any]" = {}
        if self.failures:
            doc["failures"] = [f.to_dict() for f in self.failures]
        if self.events:
            doc["events"] = list(self.events)
        return doc


@dataclass(frozen=True)
class ExecutionPolicy:
    """All fault-tolerance knobs of one run, bundled.

    ``map_tasks`` consults the ambient policy (installed with
    :func:`execution_scope`) for any knob not passed explicitly, so
    experiment drivers inherit the CLI's ``--on-error``/``--retries``/
    ``--task-timeout``/``--resume`` settings without signature changes.
    """

    on_error: str = "raise"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout: "float | None" = None
    journal: "RunJournal | None" = None
    report: RunReport = field(default_factory=RunReport)
    #: ``--executor`` choice: a mode string from :data:`EXECUTOR_MODES`,
    #: or a configured ExecutionBackend instance (e.g. the one
    #: DispatchBackend shared by every stage of a ``--executor dispatch``
    #: run).
    executor: Any = "auto"
    #: Poison-task circuit breaker (``--quarantine-after``): a task that
    #: kills its worker this many times is quarantined — settled as a
    #: ``TaskFailure(kind="quarantined")`` instead of being re-issued
    #: forever — so one deterministically crashing task can never pin a
    #: run.  Counts persist in the journal across pool rebuilds and
    #: resumes.
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        if isinstance(self.executor, str) and self.executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES} or a backend "
                f"instance, got {self.executor!r}"
            )


_ACTIVE_POLICY: "ExecutionPolicy | None" = None


def current_policy() -> "ExecutionPolicy | None":
    """The ambient :class:`ExecutionPolicy`, if one is installed."""
    return _ACTIVE_POLICY


@contextmanager
def execution_scope(policy: "ExecutionPolicy | None"):
    """Install ``policy`` as the ambient execution policy for the block."""
    global _ACTIVE_POLICY
    previous = _ACTIVE_POLICY
    _ACTIVE_POLICY = policy
    try:
        yield policy
    finally:
        _ACTIVE_POLICY = previous
