"""A run's settings as one frozen record — :class:`RunContext`.

A number this reproduction prints means something only if every
process that computed it ran under the same, known settings.  A
:class:`RunContext` holds all of them, in two groups:

* **what a worker needs** to compute exactly as the dispatcher does: the
  array-backend policy (:class:`~repro.backend.config.BackendConfig`),
  the numerical-guard mode (:mod:`repro.engine.guards`), the chaos plan
  (:mod:`repro.engine.chaos`), and the telemetry switches — buffer task
  metrics, collect task spans for stitching, and the event-bus directory
  to join;
* **what identifies the run**: the resolved experiment ids, the scale,
  the seed and the ``--channel`` spec.

One context is installed per process.  The CLI installs the one its
flags describe with :func:`run_scope`; the executor ships it whole to
pool and dispatch workers, which install it with :func:`install_run`
before running a task.  Readers take their field from
:func:`current_run` — a plain attribute lookup, so the kernels that read
the backend or the guard mode thousands of times per run pay nothing
for it.

The plain-data form (:meth:`RunContext.to_dict`) is the header of
``summary.json`` and the ``meta.json`` of a run journal, and ``--resume``
compares its :data:`RESULT_FIELDS`.  The default context is the library
default: float64 dense kernels, guards off, no chaos, no telemetry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.backend.config import BackendConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.chaos import ChaosPlan

__all__ = [
    "GUARD_MODES",
    "RESULT_FIELDS",
    "RunContext",
    "current_run",
    "install_run",
    "run_scope",
]

#: Numerical-guard strictness levels (see :mod:`repro.engine.guards`).
GUARD_MODES = ("off", "warn", "strict")

#: The fields of :meth:`RunContext.to_dict` that decide result bytes: the
#: sweep shapes, the per-task seeds and the kernels' arithmetic.  A
#: journaled run resumes only under the values it recorded.  Worker
#: counts, executors, guards, chaos and telemetry are not among them;
#: results are identical across all of those by construction.
RESULT_FIELDS = ("experiment_ids", "scale", "seed", "channel", "backend")


@dataclass(frozen=True)
class RunContext:
    """Every setting of one run; see the module docstring."""

    experiment_ids: "tuple[str, ...]" = ()
    scale: "str | None" = None
    seed: "int | None" = None
    channel: "str | None" = None
    backend: BackendConfig = field(default_factory=BackendConfig)
    guards: str = "off"
    chaos: "ChaosPlan | None" = None
    #: Buffer task metrics in workers and ship them back on results.
    metrics: bool = False
    #: Collect task spans in workers for stitching into the run's trace.
    spans: bool = False
    #: Event-bus directory workers join (``--monitor``), or ``None``.
    events: "str | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, BackendConfig):
            raise TypeError(
                f"backend must be a BackendConfig, got {type(self.backend).__name__}"
            )
        if self.guards not in GUARD_MODES:
            raise ValueError(
                f"guard mode must be one of {GUARD_MODES}, got {self.guards!r}"
            )

    def to_dict(self) -> "dict[str, Any]":
        """The one plain-data form: JSON-ready, and inverted by :meth:`from_dict`."""
        return {
            "experiment_ids": list(self.experiment_ids),
            "scale": self.scale,
            "seed": self.seed,
            "channel": self.channel,
            "backend": self.backend.to_dict(),
            "guards": self.guards,
            "chaos": None if self.chaos is None else self.chaos.to_dict(),
            "metrics": self.metrics,
            "spans": self.spans,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, doc: "dict[str, Any]") -> "RunContext":
        chaos = doc.get("chaos")
        if chaos is not None:
            from repro.engine.chaos import ChaosPlan

            chaos = ChaosPlan.from_dict(chaos)
        return cls(
            experiment_ids=tuple(doc.get("experiment_ids", ())),
            scale=doc.get("scale"),
            seed=doc.get("seed"),
            channel=doc.get("channel"),
            backend=BackendConfig.from_dict(doc.get("backend") or {}),
            guards=doc.get("guards", "off"),
            chaos=chaos,
            metrics=bool(doc.get("metrics", False)),
            spans=bool(doc.get("spans", False)),
            events=doc.get("events"),
        )


_CURRENT = RunContext()


def current_run() -> RunContext:
    """The run context installed in this process."""
    return _CURRENT


def install_run(run: RunContext) -> RunContext:
    """Install ``run`` process-wide and return the previous context.

    Workers install the dispatcher's context this way; everything else
    uses :func:`run_scope`, which restores the previous one.
    """
    global _CURRENT
    if not isinstance(run, RunContext):
        raise TypeError(f"run must be a RunContext, got {type(run).__name__}")
    previous, _CURRENT = _CURRENT, run
    return previous


@contextmanager
def run_scope(run: "RunContext | None" = None, **changes: Any):
    """Run the block under ``run`` (default: the current context) with
    ``changes`` applied, e.g. ``run_scope(guards="strict")``."""
    run = current_run() if run is None else run
    if changes:
        run = replace(run, **changes)
    previous = install_run(run)
    try:
        yield run
    finally:
        install_run(previous)
