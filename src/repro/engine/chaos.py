"""Deterministic fault injection — crashes, hangs, and NaN payloads.

Recovery code that is never executed is broken code; this module makes
every recovery path of the engine exercisable on demand.  A
:class:`ChaosPlan` names faults by *where they strike*:

* ``kind="raise"`` — the task function raises :class:`ChaosError`;
* ``kind="exit"`` — the worker process dies hard (``os._exit``),
  breaking the process pool (in the main process this downgrades to a
  :class:`ChaosError` so a serial fallback never kills the run itself,
  and so it does in a declared dispatch worker: there the fault is a
  task error that a retry absorbs);
* ``kind="hang"`` — the task sleeps past any reasonable wall-clock
  budget, exercising the executor's timeout path;
* ``kind="worker-lost"`` — the process dies hard *while holding a
  task*: in a dispatch worker (a process that called
  :func:`declare_worker_process`) or a pool worker this is
  ``os._exit``, leaving its claim behind so that the dispatcher's or the
  pool's re-issue path is exercised; in a main process it downgrades to
  a :class:`ChaosError`;
* ``kind="nan"`` — a numerical kernel's output array is corrupted with
  NaNs at chosen link positions, exercising the
  :mod:`~repro.engine.guards` layer;
* ``kind="enospc"`` — a best-effort disk write (journal checkpoint,
  status file, dispatch queue protocol — the sites in
  :data:`FAULT_SITES`) raises ``OSError(ENOSPC)``, exercising the
  resource-exhaustion degradation ladder.

Faults match on the executor stage name and task index, and optionally
on the experiment whose driver opened the stage (each may be ``None`` =
any), and are **once-only by default**: the first attempt
that reaches the fault claims a marker file in ``state_dir`` (atomic
``O_CREAT | O_EXCL``, so the claim is race-free across worker
processes) and later attempts run clean — exactly the transient-fault
shape retry/backoff is built for.  Set ``once=False`` for a persistent
fault.

Beyond hand-placed faults, a plan may carry a seeded
:class:`RandomSchedule` — the soak harness's fault generator: each
``(stage, index)`` pair deterministically draws whether its *first*
attempt raises, hangs, dies as a worker, or hits an injected ENOSPC
(probabilities per fault, seeded, so two runs of the same schedule
inject identical faults).  Schedule faults are always once-only, which
is what lets a soak run assert byte-identity with a clean serial run:
every injected fault is recoverable by design.

Plans are plain JSON: the CLI loads one from the ``REPRO_CHAOS``
environment variable (a path to a plan file) into the ``chaos`` field of
the run context (:mod:`repro.run_context`), which the executor ships
whole to every pool and dispatch worker, so injection behaves
identically wherever a task runs.

No fault fires unless the run context carries a plan; the inactive fast
path is one ``None`` check.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.trace import current_experiment
from repro.run_context import current_run

__all__ = [
    "ChaosError",
    "ChaosPlan",
    "ChaosSpecError",
    "FAULT_KINDS",
    "FAULT_SITES",
    "Fault",
    "RandomSchedule",
    "corrupt",
    "declare_worker_process",
    "load_plan",
    "on_task_start",
    "on_write",
    "plan_from_env",
    "set_current_task",
]

#: Environment variable naming a JSON chaos-plan file.
CHAOS_ENV = "REPRO_CHAOS"

FAULT_KINDS = ("raise", "exit", "hang", "nan", "worker-lost", "enospc")

#: Site names a fault's ``site`` may target, for error messages: the
#: guarded kernel outputs (``nan`` faults) and the best-effort write
#: sites (``enospc`` faults).
FAULT_SITES = (
    # numerical-guard sites (kind="nan")
    "theorem1.conditional",
    "theorem1.conditional_binary",
    "theorem1.conditional_batch",
    "theorem1.conditional_at",
    # best-effort write sites (kind="enospc")
    "journal.record",
    "journal.status",
    "journal.failures",
    "journal.crashes",
    "dispatch.queue",
    "dispatch.todo",
    "dispatch.result",
)


class ChaosError(RuntimeError):
    """The exception an injected ``raise`` (or downgraded ``exit``) fault throws."""


class ChaosSpecError(ValueError):
    """A ``REPRO_CHAOS`` plan file does not parse into a valid plan."""


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    ``stage``/``index`` select the executor task (``None`` = any);
    ``experiment`` narrows that to the stages one experiment's driver
    opens (an id such as ``"E7"``; ``None`` = any experiment), since
    drivers share stage names; ``site``/``links`` select the kernel call
    site for ``nan`` faults.
    """

    kind: str
    stage: "str | None" = None
    index: "int | None" = None
    experiment: "str | None" = None
    site: "str | None" = None
    links: "tuple[int, ...]" = ()
    once: bool = True
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {', '.join(FAULT_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.kind == "nan" and not self.site:
            raise ValueError(
                "nan faults need a site (a kernel call site name such as "
                + " or ".join(repr(s) for s in FAULT_SITES if s.startswith("theorem1"))
                + ")"
            )

    def matches_task(
        self, stage: str, index: int, experiment: "str | None" = None
    ) -> bool:
        return (
            (self.stage is None or self.stage == stage)
            and (self.index is None or self.index == index)
            and (self.experiment is None or self.experiment == experiment)
        )

    def to_dict(self) -> "dict[str, Any]":
        return {
            "kind": self.kind,
            "stage": self.stage,
            "index": self.index,
            "experiment": self.experiment,
            "site": self.site,
            "links": list(self.links),
            "once": self.once,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, doc: "dict[str, Any]") -> "Fault":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown fault field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        if "kind" not in doc:
            raise ValueError(
                f"fault needs a 'kind' (one of {', '.join(FAULT_KINDS)})"
            )
        return cls(
            kind=doc["kind"],
            stage=doc.get("stage"),
            index=doc.get("index"),
            experiment=doc.get("experiment"),
            site=doc.get("site"),
            links=tuple(int(x) for x in doc.get("links", ())),
            once=bool(doc.get("once", True)),
            hang_seconds=float(doc.get("hang_seconds", 3600.0)),
        )


@dataclass(frozen=True)
class RandomSchedule:
    """A seeded probabilistic fault schedule — the soak harness's engine.

    Each executor task ``(stage, index)`` deterministically draws one
    uniform variate from ``seed`` and fires at most one fault on its
    *first* attempt: ``raise`` with probability ``p_raise``, ``hang``
    with ``p_hang``, ``worker-lost`` with ``p_worker_lost``, ``exit``
    with ``p_exit`` (cumulative, in that order).  Independently, the
    task's journal-checkpoint write fails with ``OSError(ENOSPC)`` with
    probability ``p_enospc``.  Every schedule fault is once-only (a
    marker in the plan's ``state_dir``), so a run under
    ``on_error="retry"`` recovers from all of them and stays
    byte-identical to a clean run — the soak invariant.
    """

    seed: int
    p_raise: float = 0.0
    p_hang: float = 0.0
    p_worker_lost: float = 0.0
    p_exit: float = 0.0
    p_enospc: float = 0.0
    stage: "str | None" = None
    hang_seconds: float = 2.0

    def __post_init__(self) -> None:
        probs = (self.p_raise, self.p_hang, self.p_worker_lost, self.p_exit)
        if any(p < 0.0 for p in probs + (self.p_enospc,)):
            raise ValueError("schedule probabilities must be non-negative")
        if sum(probs) > 1.0:
            raise ValueError(
                "p_raise + p_hang + p_worker_lost + p_exit must not exceed 1"
            )
        if self.p_enospc > 1.0:
            raise ValueError("p_enospc must not exceed 1")

    def task_fault(self, stage: str, index: int) -> "str | None":
        """The fault kind this schedule injects into a task, if any.

        Pure function of ``(seed, stage, index)`` — string seeding uses
        a stable hash, so the draw is identical in every process and on
        every run of the same schedule.
        """
        if self.stage is not None and self.stage != stage:
            return None
        u = random.Random(f"{self.seed}:task:{stage}:{index}").random()
        for kind, p in (
            ("raise", self.p_raise),
            ("hang", self.p_hang),
            ("worker-lost", self.p_worker_lost),
            ("exit", self.p_exit),
        ):
            if u < p:
                return kind
            u -= p
        return None

    def write_fault(self, stage: str, index: int) -> bool:
        """Whether this task's checkpoint write draws an injected ENOSPC."""
        if self.p_enospc <= 0.0:
            return False
        if self.stage is not None and self.stage != stage:
            return False
        u = random.Random(f"{self.seed}:write:{stage}:{index}").random()
        return u < self.p_enospc

    def to_dict(self) -> "dict[str, Any]":
        return {
            "seed": self.seed,
            "p_raise": self.p_raise,
            "p_hang": self.p_hang,
            "p_worker_lost": self.p_worker_lost,
            "p_exit": self.p_exit,
            "p_enospc": self.p_enospc,
            "stage": self.stage,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, doc: "dict[str, Any]") -> "RandomSchedule":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown schedule field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        if "seed" not in doc:
            raise ValueError("a random schedule needs a 'seed'")
        return cls(
            seed=int(doc["seed"]),
            p_raise=float(doc.get("p_raise", 0.0)),
            p_hang=float(doc.get("p_hang", 0.0)),
            p_worker_lost=float(doc.get("p_worker_lost", 0.0)),
            p_exit=float(doc.get("p_exit", 0.0)),
            p_enospc=float(doc.get("p_enospc", 0.0)),
            stage=doc.get("stage"),
            hang_seconds=float(doc.get("hang_seconds", 2.0)),
        )


@dataclass(frozen=True)
class ChaosPlan:
    """A set of faults plus the marker directory for once-only claims."""

    state_dir: str
    faults: "tuple[Fault, ...]" = field(default_factory=tuple)
    #: Optional seeded probabilistic schedule, layered on top of the
    #: hand-placed faults (the soak harness's knob).
    schedule: "RandomSchedule | None" = None

    def to_dict(self) -> "dict[str, Any]":
        doc: "dict[str, Any]" = {
            "state_dir": self.state_dir,
            "faults": [f.to_dict() for f in self.faults],
        }
        if self.schedule is not None:
            doc["schedule"] = self.schedule.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: "dict[str, Any]") -> "ChaosPlan":
        if "state_dir" not in doc:
            raise ValueError(
                "a chaos plan needs a 'state_dir' (the marker directory "
                "for once-only fault claims)"
            )
        sched = doc.get("schedule")
        return cls(
            state_dir=str(doc["state_dir"]),
            faults=tuple(Fault.from_dict(f) for f in doc.get("faults", ())),
            schedule=None if sched is None else RandomSchedule.from_dict(sched),
        )


#: The (stage, index, experiment) of the task currently executing in
#: this process.
_CURRENT_TASK: "tuple[str, int, str | None] | None" = None
#: Whether this process declared itself a dispatch worker — the
#: target population of ``worker-lost`` faults.
_WORKER_PROCESS = False


def declare_worker_process(flag: bool = True) -> None:
    """Mark this process as a dispatch worker (``worker-lost`` faults
    may kill it hard instead of downgrading to an exception)."""
    global _WORKER_PROCESS
    _WORKER_PROCESS = bool(flag)


def load_plan(path) -> ChaosPlan:
    """Load a JSON plan file.

    A malformed plan raises :class:`ChaosSpecError` naming the file,
    the problem, and the valid fault kinds and site names — mirroring
    the channel-spec error style, so a typo in a ``REPRO_CHAOS`` plan
    is a one-line fix instead of a bare traceback.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ChaosSpecError(f"cannot read chaos plan {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChaosSpecError(
            f"chaos plan {path} is not valid JSON: {exc}"
        ) from exc
    try:
        plan = ChaosPlan.from_dict(doc)
    except (ValueError, TypeError, KeyError) as exc:
        raise ChaosSpecError(
            f"bad chaos plan {path}: {exc}; "
            f"valid fault kinds: {', '.join(FAULT_KINDS)}; "
            f"valid sites: {', '.join(FAULT_SITES)}"
        ) from exc
    return plan


def plan_from_env() -> "ChaosPlan | None":
    """The plan named by ``$REPRO_CHAOS``, if any."""
    path = os.environ.get(CHAOS_ENV)
    return load_plan(path) if path else None


def _claim(plan: ChaosPlan, marker: str) -> bool:
    """Atomically claim a once-only marker; True exactly once per marker."""
    Path(plan.state_dir).mkdir(parents=True, exist_ok=True)
    target = Path(plan.state_dir) / marker
    try:
        fd = os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _should_fire(plan: ChaosPlan, fault: Fault, fault_pos: int, key: str) -> bool:
    if not fault.once:
        return True
    return _claim(plan, f"fault-{fault_pos}-{key}")


def set_current_task(
    stage: "str | None", index: "int | None", experiment: "str | None" = None
) -> None:
    """Record which executor task this process is running (``None`` clears)."""
    global _CURRENT_TASK
    _CURRENT_TASK = None if stage is None else (stage, int(index), experiment)


def _fire_task_fault(kind: str, stage: str, index: int,
                     hang_seconds: float) -> None:
    """Execute one task-level fault kind in the current process."""
    _metrics.add("chaos.faults_fired")
    _events.emit("chaos-fault", fault=kind, stage=stage, index=index)
    if kind == "raise":
        raise ChaosError(f"injected crash in task {index} (stage {stage!r})")
    if kind == "hang":
        time.sleep(hang_seconds)
        return
    if kind == "exit":
        if _WORKER_PROCESS or multiprocessing.parent_process() is None:
            # Hard-killing the main process would take the harness
            # down with the fault; degrade to an ordinary crash.  A
            # dispatch worker gets the same treatment: ``worker-lost``
            # is the fault that kills it.
            where = "a dispatch worker" if _WORKER_PROCESS else "the main process"
            raise ChaosError(
                f"injected worker death in task {index} (stage {stage!r}) "
                f"downgraded to an exception in {where}"
            )
        os._exit(43)
    if kind == "worker-lost":
        # Kill any kind of worker: a dispatch worker dies holding its
        # claim, which the dispatcher re-issues once it sees the exit.
        if _WORKER_PROCESS or multiprocessing.parent_process() is not None:
            os._exit(44)
        raise ChaosError(
            f"injected worker loss in task {index} (stage {stage!r}) "
            "downgraded to an exception in the main process"
        )


def on_task_start(stage: str, index: int, experiment: "str | None" = None) -> None:
    """Fire any crash/hang fault aimed at this task.

    Called by the executor at the top of every task execution (every
    attempt), in the process that runs the task, with the id of the
    experiment whose driver opened the stage.  Hand-placed faults fire
    first, then the plan's :class:`RandomSchedule` (always once-only)
    draws for the task.
    """
    plan = current_run().chaos
    if plan is None:
        return
    for pos, fault in enumerate(plan.faults):
        if fault.kind in ("nan", "enospc") or not fault.matches_task(
            stage, index, experiment
        ):
            continue
        if not _should_fire(plan, fault, pos, f"{fault.kind}-{stage}-{index}"):
            continue
        _fire_task_fault(fault.kind, stage, index, fault.hang_seconds)
        return
    sched = plan.schedule
    if sched is None:
        return
    kind = sched.task_fault(stage, index)
    if kind is None:
        return
    if not _claim(plan, f"sched-{kind}-{stage}-{index}"):
        return
    _fire_task_fault(kind, stage, index, sched.hang_seconds)


def on_write(site: str, stage: "str | None" = None,
             index: "int | None" = None) -> None:
    """Fire any ``enospc`` fault aimed at a best-effort write site.

    Called by the journal and the dispatch queue protocol immediately
    before a write, with the site name (one of :data:`FAULT_SITES`) and
    — where the write belongs to one task — the stage and index.  A
    fault naming an experiment fires only where that experiment's driver
    is running.
    Raises ``OSError(ENOSPC)`` when a fault fires, which the caller's
    degradation path then has to absorb; a no-op without a plan.
    """
    plan = current_run().chaos
    if plan is None:
        return
    experiment = current_experiment()
    for pos, fault in enumerate(plan.faults):
        if fault.kind != "enospc":
            continue
        if fault.site is not None and fault.site != site:
            continue
        if (fault.stage is not None or fault.index is not None) and (
            stage is None or index is None
        ):
            continue
        if not fault.matches_task(stage, index, experiment):
            continue
        if not _should_fire(plan, fault, pos, f"enospc-{site}-{stage}-{index}"):
            continue
        _metrics.add("chaos.faults_fired")
        _events.emit("chaos-fault", fault="enospc", site=site, stage=stage,
                     index=index)
        raise OSError(
            errno.ENOSPC, f"chaos: injected ENOSPC at {site} "
            f"(stage {stage!r}, index {index})"
        )
    sched = plan.schedule
    if sched is None or stage is None or index is None:
        return
    if site != "journal.record" or not sched.write_fault(stage, index):
        return
    if not _claim(plan, f"sched-enospc-{stage}-{index}"):
        return
    _metrics.add("chaos.faults_fired")
    _events.emit("chaos-fault", fault="enospc", site=site, stage=stage, index=index)
    raise OSError(
        errno.ENOSPC,
        f"chaos: scheduled ENOSPC at {site} (stage {stage!r}, index {index})",
    )


def corrupt(site: str, arr: np.ndarray) -> np.ndarray:
    """Apply any matching ``nan`` fault to a kernel output array.

    Returns ``arr`` untouched (same object) when no fault matches; a
    corrupted copy otherwise.  ``links`` index the array's last axis.
    """
    plan = current_run().chaos
    if plan is None:
        return arr
    for pos, fault in enumerate(plan.faults):
        if fault.kind != "nan" or fault.site != site:
            continue
        if _CURRENT_TASK is not None and not fault.matches_task(*_CURRENT_TASK):
            continue
        if _CURRENT_TASK is None and (
            fault.stage is not None
            or fault.experiment not in (None, current_experiment())
        ):
            continue
        key = f"nan-{site}" if _CURRENT_TASK is None else f"nan-{site}-{_CURRENT_TASK[0]}-{_CURRENT_TASK[1]}"
        if not _should_fire(plan, fault, pos, key):
            continue
        _metrics.add("chaos.faults_fired")
        out = np.array(arr, dtype=np.float64, copy=True)
        links = fault.links if fault.links else (0,)
        out[..., list(links)] = np.nan
        return out
    return arr
