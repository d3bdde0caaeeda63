"""Per-stage cProfile hooks (``repro run --profile``).

When a profile directory is installed (:func:`repro.obs.install`), every
driver stage (each :meth:`~repro.obs.trace.StageTimer.stage` block) is
wrapped in a :class:`cProfile.Profile` and dumped to
``profile-<experiment>-<stage>.pstats`` in that directory by the process
that ran the stage — loadable with :mod:`pstats` or any flamegraph tool
that reads pstats files.  The dump's file name is added to the installed
:class:`~repro.obs.Telemetry` record's ``profiles`` list.

A stage runs where its experiment runs: in the main process, or, when
``--jobs N`` hands whole experiments to the process pool
(:mod:`repro.engine.suite`), in the worker that runs the experiment,
whose :func:`~repro.obs.capture` installs the profile directory and
ships the names it dumped back to the main process.  Where a stage fans
its tasks out over a pool, the dump shows the running process's share
of the stage (task dispatch, unpickling, aggregation); the worker-side
cost is what the metrics counters and task spans account for.  Workers
forked inside a profiled stage (pool workers, local dispatch workers)
inherit the hook, so they drop it (:func:`~repro.obs.shed`) before
running any task: their task spans then time the tasks, not the tasks
plus cProfile.  cProfile cannot nest, so an inner stage opened while an
outer one is being profiled is timed (its span is unaffected) but not
separately profiled.

Profiling observes the interpreter only — it draws no randomness and
never touches results, so ``--profile`` preserves result bytes like the
rest of the telemetry layer.
"""

from __future__ import annotations

import cProfile
import re
from contextlib import contextmanager
from pathlib import Path

__all__ = ["maybe_profile"]

#: This process's profile directory and dump list, set by
#: :func:`repro.obs.install` (``None``: profiling is off).
_PROFILE_DIR: "Path | None" = None
_DUMPED: "list[str]" = []
#: The profiler of the stage being profiled (``None`` between stages).
_ACTIVE: "cProfile.Profile | None" = None

_UNSAFE = re.compile(r"[^-._A-Za-z0-9]")


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
