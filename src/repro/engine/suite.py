"""Whole experiments as the process pool's tasks (``repro run all --jobs N``).

A run that selects at least as many experiments as it has pool workers
hands each experiment to a worker whole, instead of fanning every driver
stage out over a freshly forked pool behind a barrier of its own.  An
experiment's bytes depend only on its config and seed, so a worker runs
it as the main process runs it at ``--jobs 1``: through
:meth:`~repro.engine.registry.ExperimentSpec.run`, on the serial
executor.

What the main process would have gathered along the way, the worker
gathers under one :func:`repro.obs.capture` — the capture a pool task
runs under, with the profile directory added — and ships back on
:class:`Shipped`: its metrics (counters land under the experiment's
scope), the span subtree of the experiment (stitched under the run span
at its measured times, with the experiment span attributed to the
worker) and the names of the profile dumps of its stages, plus the
health of its handle on the run journal (the stage counts ``repro
doctor`` range-checks records against).  :func:`run_whole` yields the
results in selection order, each as soon as it and every experiment
before it are back, after :meth:`Shipped.adopt` has folded its
telemetry in.

The experiments are not a ``map_tasks`` stage: no fault plan, event,
counter or span ever names them, so chaos faults, the event bus and the
run's telemetry see only the experiments' own stages, as at ``--jobs 1``.
An exception the driver raised travels back on :class:`Shipped` and is
raised again in its turn, so the experiments before it are still
written, the error is the ``--jobs 1`` one, and no experiment is issued
after it has come back.  When a worker dies, the pool breaks: every
experiment that is not back yet runs in the main process with its sweep
tasks on the pool (today's per-task path), where a journaled run replays
what the workers recorded and attribution, quarantine and fault records
stay per task.
"""

from __future__ import annotations

import traceback
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro import obs
from repro.engine.backends.base import get_worker_context, shipped_run, worker_name
from repro.engine.backends.pool import init_worker, kill_pool
from repro.engine.executor import resolve_jobs
from repro.engine.faults import ExecutionPolicy
from repro.engine.journal import RunJournal
from repro.engine.registry import get_spec
from repro.run_context import current_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentResult

__all__ = ["Shipped", "WorkerTraceback", "run_whole"]


class WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, chained as the
    cause of the exception when it is raised again in the main process."""

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class _Setup:
    """What every experiment shares beyond the run context (shipped once
    per worker)."""

    policy: ExecutionPolicy
    profile_dir: "Path | None"


@dataclass
class Shipped:
    """One experiment as a worker ran it, with the telemetry and journal
    health the main process would have gathered running it itself."""

    result: "ExperimentResult | None"
    #: What the driver raised (``result`` is then ``None``) and where.
    error: "Exception | None"
    traceback: str
    captured: "obs.Captured"
    journal: "dict[str, Any] | None"

    def adopt(self, journal: "RunJournal | None") -> "ExperimentResult":
        """Fold this experiment's telemetry into this process's sinks and
        its journal health into ``journal``; return its result, or raise
        the driver's exception."""
        self.captured.adopt()
        if journal is not None and self.journal is not None:
            journal.adopt_health(self.journal)
        if self.error is not None:
            raise self.error from WorkerTraceback(self.traceback)
        return self.result


def _run_whole(exp_id: str) -> Shipped:
    """Run one experiment end to end in this pool worker, collecting what
    :class:`Shipped` carries."""
    setup: _Setup = get_worker_context()
    run = current_run()
    journal = setup.policy.journal
    if journal is not None:
        # A handle of its own, whose counters hold this experiment's share.
        journal = RunJournal(journal.run_dir, journal.meta)
    policy = replace(setup.policy, journal=journal, executor="serial")
    result = error = None
    trace_text = ""
    with obs.capture(worker=worker_name(), profile_dir=setup.profile_dir) as captured:
        try:
            result = get_spec(exp_id).run(
                run.scale, seed=run.seed, jobs=1, channel=run.channel, policy=policy
            )
        except Exception as exc:  # raised again, in its turn, by Shipped.adopt
            error, trace_text = exc, traceback.format_exc()
    for rec in captured.spans:
        if rec["kind"] == "experiment":
            rec["meta"]["worker"] = captured.worker
    return Shipped(
        result=result,
        error=error,
        traceback=trace_text,
        captured=captured,
        journal=journal.health() if journal is not None else None,
    )


def _ends_issuing(fut: Future) -> bool:
    """Whether a landed experiment ends the issuing of the rest: its
    worker died (the pool is broken) or its driver raised (the run ends
    at that experiment)."""
    exc = fut.exception()
    if exc is not None:
        return isinstance(exc, BrokenExecutor)
    return fut.result().error is not None


def _land(
    exp_id: str, fut: "Future | None", jobs: "int | None", policy: ExecutionPolicy
) -> "ExperimentResult":
    """The result of one experiment: adopted from its worker, or run here
    on the per-task path when it never came back (``fut`` is ``None``
    when the pool broke before it was issued)."""
    exc = fut.exception() if fut is not None else None
    if fut is not None and exc is None:
        return fut.result().adopt(policy.journal)
    if fut is None or isinstance(exc, BrokenExecutor):
        kind, why = "pool-broken", f"a pool worker died before {exp_id} came back"
    else:
        kind, why = "pool-error", f"{exp_id}'s pool task failed ({type(exc).__name__}: {exc})"
    run = current_run()
    result = get_spec(exp_id).run(
        run.scale, seed=run.seed, jobs=jobs, channel=run.channel, policy=policy
    )
    detail = f"{why}; ran {exp_id} in the main process, its sweep tasks on the pool"
    warnings.warn(detail, stacklevel=3)
    faults = dict(result.faults)
    faults["events"] = [{"kind": kind, "detail": detail}, *faults.get("events", [])]
    return replace(result, faults=faults)


def run_whole(
    experiment_ids: "tuple[str, ...]",
    *,
    jobs: "int | None",
    policy: ExecutionPolicy,
) -> "Iterator[ExperimentResult]":
    """Run each experiment whole on a pool of ``min(jobs, experiments)``
    workers and yield the results in selection order, each as soon as it
    and every experiment before it are back.

    Each worker holds one experiment at a time; none is issued once a
    driver error or a worker death has come back.  The pool is torn
    down when the generator is closed or raises.
    """
    ids = list(experiment_ids)
    workers = min(resolve_jobs(jobs), len(ids))
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=init_worker,
        initargs=(shipped_run(), _Setup(policy, obs.current().profile_dir)),
    )
    landed: "dict[int, Future]" = {}
    inflight: "dict[Future, int]" = {}
    issued, stop = 0, False
    try:
        for i, exp_id in enumerate(ids):
            while True:
                while not stop and issued < len(ids) and len(inflight) < workers:
                    try:
                        fut = pool.submit(_run_whole, ids[issued])
                    except BrokenExecutor:  # a worker died since the last wait
                        stop = True
                        break
                    inflight[fut] = issued
                    issued += 1
                # Landed, or never issued because the pool broke first.
                if i in landed or not inflight:
                    break
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for fut in done:
                    landed[inflight.pop(fut)] = fut
                    stop = stop or _ends_issuing(fut)
            yield _land(exp_id, landed.pop(i, None), jobs, policy)
        pool.shutdown(wait=True)
    finally:
        kill_pool(pool)
