"""Per-stage cProfile hooks (``repro run --profile``).

When a profile directory is installed, every driver stage (each
:meth:`~repro.obs.trace.StageTimer.stage` block) is wrapped in a
:class:`cProfile.Profile` and dumped to
``profile-<experiment>-<stage>.pstats`` in that directory by the process
that ran the stage — loadable with :mod:`pstats` or any flamegraph tool
that reads pstats files.

A stage runs where its experiment runs: in the main process, or, when
``--jobs N`` hands whole experiments to the process pool
(:mod:`repro.engine.suite`), in the worker that runs the experiment,
which profiles its stages under :func:`profiling` and reports the names
it dumped back to the main process (:func:`adopt_dumps`).  Where a
stage fans its tasks out over a pool, the dump shows the running
process's share of the stage (task dispatch, unpickling, aggregation);
the worker-side cost is what the metrics counters and task spans
account for.  Workers forked inside a profiled stage (pool workers,
local dispatch workers) inherit the hook, so they drop it with
:func:`shed` before running any task: their task spans then time the
tasks, not the tasks plus cProfile.  cProfile cannot nest, so an inner
stage opened while an outer one is being profiled is timed (its span is
unaffected) but not separately profiled.

Profiling observes the interpreter only — it draws no randomness and
never touches results, so ``--profile`` preserves result bytes like the
rest of the telemetry layer.
"""

from __future__ import annotations

import cProfile
import re
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "adopt_dumps",
    "current_dir",
    "install_profile_dir",
    "maybe_profile",
    "profile_dumps",
    "profiling",
    "shed",
]

_PROFILE_DIR: "Path | None" = None
#: The profiler of the stage being profiled (``None`` between stages).
_ACTIVE: "cProfile.Profile | None" = None
_DUMPED: "list[str]" = []

_UNSAFE = re.compile(r"[^-._A-Za-z0-9]")


def install_profile_dir(path) -> None:
    """Enable per-stage profiling, dumping into ``path`` (``None`` off)."""
    global _PROFILE_DIR, _ACTIVE
    _PROFILE_DIR = None if path is None else Path(path)
    _ACTIVE = None
    _DUMPED.clear()


def current_dir() -> "Path | None":
    """The installed profile directory (``None``: profiling is off)."""
    return _PROFILE_DIR


def profile_dumps() -> "list[str]":
    """File names dumped so far (for ``summary.json``'s telemetry entry)."""
    return list(_DUMPED)


def adopt_dumps(names: "list[str]") -> None:
    """Count dumps another process wrote into the installed directory
    (a worker that ran a whole experiment) as this process's own."""
    _DUMPED.extend(names)


@contextmanager
def profiling(path):
    """Profile the stages of the block into ``path`` (``None``: off), as
    :func:`install_profile_dir` does for a run; yields the list of file
    names the block dumped, filled on exit.  The previous directory,
    profiler and dump list are restored."""
    global _PROFILE_DIR, _ACTIVE
    saved = (_PROFILE_DIR, _ACTIVE, list(_DUMPED))
    install_profile_dir(path)
    dumped: "list[str]" = []
    try:
        yield dumped
    finally:
        dumped.extend(_DUMPED)
        _PROFILE_DIR, _ACTIVE = saved[:2]
        _DUMPED[:] = saved[2]


@contextmanager
def maybe_profile(stage: str):
    """Profile the block when ``--profile`` is active and no outer stage
    is already being profiled; otherwise a no-op."""
    global _ACTIVE
    directory = _PROFILE_DIR
    if directory is None or _ACTIVE is not None:
        yield
        return
    from repro.obs.trace import current_experiment

    scope = current_experiment() or "run"
    name = _UNSAFE.sub("_", f"profile-{scope}-{stage}") + ".pstats"
    profiler = cProfile.Profile()
    _ACTIVE = profiler
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        _ACTIVE = None
        profiler.dump_stats(directory / name)
        _DUMPED.append(name)


def shed() -> None:
    """Drop a profile this process inherited through ``fork``: stop the
    parent stage's profiler (its copy here is never dumped) and forget
    the profile directory, as a freshly started process has it."""
    if _ACTIVE is not None:
        _ACTIVE.disable()
    install_profile_dir(None)
