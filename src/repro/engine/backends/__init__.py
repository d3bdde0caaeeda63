"""Pluggable execution backends for :func:`~repro.engine.executor.map_tasks`.

One fault policy — the :class:`TaskLifecycle` of
:mod:`~repro.engine.backends.lifecycle` (retry, timeout, worker loss,
quarantine, ``on_error``) — and three transports that drive it through
the :class:`ExecutionBackend` protocol:

* :class:`SerialBackend` — a plain loop in the calling process; the
  reference implementation every other backend must match byte-for-byte;
* :class:`ProcessPoolBackend` — a local
  :class:`~concurrent.futures.ProcessPoolExecutor` fleet;
* :class:`DispatchBackend` — a file queue served by worker processes
  it forks itself.

:func:`resolve_executor` maps an executor mode (``auto`` / ``serial`` /
``pool``) or an already-constructed backend instance to a backend;
``auto`` preserves the historical behaviour of picking serial for
``jobs <= 1`` or single-task sweeps and the pool otherwise.  Dispatch
has no mode string: it is always a configured instance, which the CLI
builds for ``--executor dispatch``.
"""

from __future__ import annotations

from repro.engine.backends.base import ExecutionBackend, RunState
from repro.engine.backends.dispatch import DispatchBackend
from repro.engine.backends.pool import ProcessPoolBackend
from repro.engine.backends.serial import SerialBackend
from repro.engine.faults import EXECUTOR_MODES

__all__ = [
    "DispatchBackend",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "RunState",
    "SerialBackend",
    "resolve_executor",
]


def resolve_executor(choice, n_jobs: int, n_pending: int) -> ExecutionBackend:
    """Turn an ``--executor`` choice into a backend instance.

    ``choice`` may be a mode string from
    :data:`~repro.engine.faults.EXECUTOR_MODES`, an
    :class:`ExecutionBackend` instance (used as-is, so the CLI can hand
    one configured :class:`DispatchBackend` to every ``map_tasks`` call
    of a run), or ``None`` (= ``"auto"``).
    """
    if choice is None:
        choice = "auto"
    if not isinstance(choice, str):
        if not callable(getattr(choice, "run", None)):
            raise TypeError(
                f"executor must be one of {EXECUTOR_MODES} or an "
                f"ExecutionBackend instance, got {choice!r}"
            )
        return choice
    if choice == "auto":
        if n_jobs <= 1 or n_pending <= 1:
            return SerialBackend()
        return ProcessPoolBackend()
    if choice == "serial":
        return SerialBackend()
    if choice == "pool":
        return ProcessPoolBackend()
    raise ValueError(
        f"executor must be one of {EXECUTOR_MODES} or an ExecutionBackend "
        f"instance (such as a DispatchBackend), got {choice!r}"
    )
