"""One task lifecycle for every execution backend.

The fault policy of a ``map_tasks`` stage — retry with backoff, timeout,
worker loss, poison-task quarantine, and the ``on_error`` mode that
decides between them — lives here and only here.  Backends are
transports: they start executions, observe what happened to them, and
report it as an event (issued, succeeded, raised, timed-out, lost or
withdrawn); the lifecycle answers with decisions.

:class:`TaskLifecycle` is the pure state machine.  It does no I/O and
reads time only through an injected clock, so it can be driven by a
property test with a fake clock.  Per task it owns the attempt number
(bumped only by a retry), the worker-loss count (seeded from
``journal.crash_counts`` so quarantine survives ``--resume``), the
retry-at time, stale-attempt filtering, and the construction of every
:class:`~repro.engine.faults.TaskFailure`.

========================  ============  ==========  =====================
event                     ``raise``     ``skip``    ``retry``
========================  ============  ==========  =====================
succeeded                 settle the value in task order
raised / timed-out        raise         settle      retry-at (attempt+1)
                                        failure     until ``max_attempts``,
                                                    then settle failure
lost, fewer than K        reissue at the same attempt (no retry is used)
lost, K-th loss           raise         quarantine  quarantine
stale attempt             ignored
withdrawn                 reissue at the same attempt
========================  ============  ==========  =====================

K is ``quarantine_after`` and counts losses from earlier incarnations of
the run, so a task already at K when the stage starts is decided before
anything executes.  *Withdrawn* means the transport abandoned an
execution through no fault of the task (a sibling's timeout tore the
pool down).  The one remaining fallback, *degrade-local* — run the rest
of the stage in this process — is taken by a transport that can no
longer attribute its failures to a task (a pool break with no in-flight
marker, an exhausted queue filesystem); see
:func:`~repro.engine.backends.serial.degrade_local`.

:class:`StageRun` is the effectful shell every backend drives: it applies
the decisions (counters, events, journal crash counts, raising) and
settles outcomes into the result slots strictly in task order.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.backends.base import (
    RunState,
    record_event,
    settle_failure,
    settle_success,
)
from repro.engine.faults import RetryPolicy, TaskFailure, is_failure
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Task

__all__ = ["StageRun", "TaskLifecycle"]


class TaskLifecycle:
    """Pure per-stage task state machine (see the module docstring).

    A task is *waiting* (in :attr:`due`, with the clock time it may be
    issued at), *in flight* (in :attr:`inflight`), or *resolved*.
    Events on a task that is not in flight at the reported attempt are
    stale and ignored; every event returns whether it was accepted.
    Each decision is passed to the :meth:`_decide` hook as it is made;
    resolved outcomes are handed out by :meth:`settled` in task order.
    """

    def __init__(
        self,
        stage: str,
        order: "list[int]",
        *,
        on_error: str,
        retry: RetryPolicy,
        quarantine_after: int,
        losses: "dict[int, int] | None" = None,
        clock: "Callable[[], float]" = time.monotonic,
    ):
        self.stage = stage
        self.order = list(order)
        self.on_error = on_error
        self.retry = retry
        self.max_attempts = retry.max_attempts if on_error == "retry" else 1
        self.quarantine_after = quarantine_after
        self.clock = clock
        self.attempt = {i: 1 for i in self.order}
        self.losses = {i: int((losses or {}).get(i, 0)) for i in self.order}
        self.due: "dict[int, float]" = {i: float("-inf") for i in self.order}
        self.inflight: "set[int]" = set()
        #: How many tasks :meth:`settled` has handed out (a task-order prefix).
        self.settled_count = 0
        self._outcome: "dict[int, Any]" = {}
        # A resumed run already knows its poison tasks: decide them up
        # front instead of feeding them to a fresh worker.
        for idx in self.order:
            if self.losses[idx] >= quarantine_after:
                del self.due[idx]
                self._quarantine(idx)

    # -- queries -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every task has been settled."""
        return self.settled_count == len(self.order)

    def ready(self) -> "list[int]":
        """Waiting tasks whose issue time has come, in task order."""
        now = self.clock()
        return sorted(i for i, at in self.due.items() if at <= now)

    def next_due(self) -> "float | None":
        """Earliest issue time of a waiting task (``None``: none waits)."""
        return min(self.due.values(), default=None)

    def settled(self) -> "list[tuple[int, Any]]":
        """Pop the resolved outcomes that are next in task order."""
        out = []
        while not self.done and self.order[self.settled_count] in self._outcome:
            idx = self.order[self.settled_count]
            out.append((idx, self._outcome.pop(idx)))
            self.settled_count += 1
        return out

    # -- events ------------------------------------------------------------

    def issue(self, idx: int) -> int:
        """The transport started executing a waiting task; returns the
        attempt number the execution runs (and must report) under."""
        del self.due[idx]
        self.inflight.add(idx)
        return self.attempt[idx]

    def succeeded(self, idx: int, attempt: int, value: Any) -> bool:
        if not self._current(idx, attempt):
            return False
        self._resolve(idx, value)
        return True

    def raised(
        self,
        idx: int,
        attempt: int,
        error: BaseException,
        error_type: "str | None" = None,
        message: "str | None" = None,
    ) -> bool:
        """The task raised ``error``.  ``error_type``/``message`` override
        the failure record's fields when the error is a stand-in for one
        raised elsewhere."""
        if not self._current(idx, attempt):
            return False
        self._fail(
            idx, error, "error",
            error_type or type(error).__name__,
            str(error) if message is None else message,
        )
        return True

    def timed_out(self, idx: int, attempt: int, budget: float) -> bool:
        """The execution outlived its ``budget`` seconds of wall clock."""
        if not self._current(idx, attempt):
            return False
        error = TimeoutError(
            f"task {idx} (stage {self.stage!r}) exceeded its "
            f"{budget:g}s wall-clock budget"
        )
        self._fail(idx, error, "timeout", "TimeoutError", f"exceeded {budget:g}s budget")
        return True

    def lost(self, idx: int, attempt: int) -> bool:
        """A worker died holding this execution.  A loss is not a task
        failure, so it never uses up a retry attempt — until the K-th
        loss quarantines the task."""
        if not self._current(idx, attempt):
            return False
        self.inflight.discard(idx)
        self.losses[idx] += 1
        self._decide("lost", idx)
        if self.losses[idx] >= self.quarantine_after:
            self._quarantine(idx)
        else:
            self.due[idx] = self.clock()
        return True

    def withdraw(self, idx: int) -> bool:
        """The transport abandoned an in-flight execution through no fault
        of the task: re-issue it at the same attempt, charging nothing."""
        if idx not in self.inflight:
            return False
        self.inflight.discard(idx)
        self.due[idx] = self.clock()
        return True

    # -- transitions -------------------------------------------------------

    def _current(self, idx: int, attempt: int) -> bool:
        return idx in self.inflight and attempt == self.attempt[idx]

    def _fail(self, idx: int, error: BaseException, kind: str,
              error_type: str, message: str) -> None:
        self.inflight.discard(idx)
        attempt = self.attempt[idx]
        if self.on_error == "raise":
            self._decide("raise", idx, error)
        elif attempt < self.max_attempts:
            self.attempt[idx] = attempt + 1
            self.due[idx] = self.clock() + self.retry.delay(idx, attempt)
            self._decide("retry", idx)
        else:
            self._resolve(
                idx, TaskFailure(idx, self.stage, kind, error_type, message, attempt)
            )

    def _quarantine(self, idx: int) -> None:
        count = self.losses[idx]
        if self.on_error == "raise":
            # Completing without a slot is exactly what ``raise`` forbids.
            self._decide("raise", idx, RuntimeError(
                f"task {idx} (stage {self.stage!r}) killed {count} worker(s) "
                "and was quarantined; re-run with --on-error skip or retry "
                "to let the remaining tasks complete without it"
            ))
            return
        self._decide("quarantine", idx)
        # ``attempts`` counts executions: each loss was one.
        self._resolve(idx, TaskFailure(
            idx, self.stage, "quarantined", "WorkerLost",
            f"worker died {count} time(s) executing this task",
            max(self.attempt[idx], count),
        ))

    def _decide(self, kind: str, idx: int,
                error: "BaseException | None" = None) -> None:
        """Hook called with every decision as it is made: ``kind`` is
        ``"retry"`` (a new attempt is due later), ``"lost"`` (a worker
        loss was counted), ``"quarantine"``, or ``"raise"`` (``error``
        must propagate, which is all this default does)."""
        if kind == "raise":
            raise error

    def _resolve(self, idx: int, outcome: Any) -> None:
        self.inflight.discard(idx)
        self._outcome[idx] = outcome


class StageRun(TaskLifecycle):
    """A :class:`TaskLifecycle` bound to one ``map_tasks`` call: every
    decision takes effect as it is made (counters, events, the journal's
    crash counts, raising), and every resolved outcome is settled into
    ``results`` in task order through the shared settle path."""

    def __init__(self, state: RunState, pending: "list[Task]",
                 results: "dict[int, Any]"):
        self.state = state
        self.tasks = {t.index: t for t in pending}
        self.results = results
        journal = state.journal
        super().__init__(
            state.stage,
            [t.index for t in pending],
            on_error=state.on_error,
            retry=state.retry,
            quarantine_after=state.quarantine_after,
            losses=journal.crash_counts(state.stage) if journal is not None else None,
        )

    def _decide(self, kind: str, idx: int,
                error: "BaseException | None" = None) -> None:
        super()._decide(kind, idx, error)
        if kind == "retry":
            obs_metrics.add("executor.retries")
        elif kind == "lost":
            obs_metrics.add("executor.worker_losses")
            if self.state.journal is not None:
                # The persisted count also holds losses another process
                # recorded since this stage read it.
                self.losses[idx] = max(
                    self.losses[idx], self.state.journal.record_crash(self.stage, idx)
                )
        elif kind == "quarantine":
            obs_metrics.add("quarantine.tasks")
            record_event(
                self.state,
                "quarantined",
                f"task {idx} killed its worker {self.losses[idx]} time(s) "
                f"(quarantine-after={self.quarantine_after}); no longer re-issued",
                index=idx,
            )

    def _resolve(self, idx: int, outcome: Any) -> None:
        super()._resolve(idx, outcome)
        for i, out in self.settled():
            if is_failure(out):
                self.results[i] = settle_failure(self.state, out)
            else:
                self.results[i] = settle_success(self.state, self.tasks[i], out)
