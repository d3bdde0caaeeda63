"""Numerical guards — validate kernel outputs before they hit aggregates.

An extreme ``α``/``β`` configuration (or a genuine kernel bug) can push
the Theorem-1 factors, Monte-Carlo SINR samples, or regret rewards into
NaN/Inf territory; un-checked, one poisoned link silently contaminates
every mean downstream and a whole sweep is wasted.  The guard layer
sits at the kernel boundaries — :class:`~repro.fading.success.Theorem1Kernel`,
:meth:`~repro.channel.base.Channel.realize_batch`'s SINR path, the
Monte-Carlo probability estimators, and the regret kernels — and checks
each output for NaN/Inf, negative probabilities, and ``Q_i > 1``.

Three strictness levels, read from the ``guards`` field of the run
context (:mod:`repro.run_context`), which workers receive whole:

* ``"off"``   — checks compile to a single mode comparison (default for
  library use; the hot kernels stay untouched);
* ``"warn"``  — violations emit a :class:`GuardWarning` naming the call
  site, offending link indices, and parameters, then let the value
  through (the CLI default: visible, never fatal);
* ``"strict"`` — violations raise :class:`GuardViolation` inside the
  task, which the executor captures as a structured
  :class:`~repro.engine.faults.TaskFailure` under ``on_error=skip/retry``.

Guard checks consume no randomness and never modify values, so enabling
them cannot change any experiment's numbers — only whether bad numbers
travel.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.obs import metrics as _metrics
from repro.run_context import GUARD_MODES, current_run

__all__ = [
    "GUARD_MODES",
    "GuardViolation",
    "GuardWarning",
    "check_finite",
    "check_probabilities",
]


class GuardViolation(ValueError):
    """A kernel output failed validation under strict guards."""


class GuardWarning(UserWarning):
    """A kernel output failed validation under warn-level guards."""


def _describe(site: str, arr: np.ndarray, bad: np.ndarray, problem: str, info) -> str:
    """One line naming the site, offending link indices, values, params."""
    where = np.argwhere(bad)
    links = sorted({int(pos[-1]) for pos in where[:64]})
    sample = np.asarray(arr)[bad][:4]
    values = ", ".join(f"{v!r}" for v in sample.tolist())
    params = "".join(f", {k}={v}" for k, v in info.items())
    return (
        f"numerical guard tripped at {site!r}: {int(bad.sum())} {problem} "
        f"value(s) at link(s) {links[:16]} (e.g. {values}{params})"
    )


def _violate(site: str, message: str) -> None:
    _metrics.add("guards.violations." + site)
    if current_run().guards == "strict":
        raise GuardViolation(message)
    warnings.warn(message, GuardWarning, stacklevel=3)


def check_finite(arr: np.ndarray, site: str, allow_inf: bool = False, **info) -> np.ndarray:
    """Assert every entry is finite (no NaN/Inf); returns ``arr``.

    ``allow_inf=True`` flags only NaN — for quantities like SINR where
    ``+inf`` is a legitimate value (no interference, zero noise).
    """
    if current_run().guards == "off":
        return arr
    a = np.asarray(arr)
    bad = np.isnan(a) if allow_inf else ~np.isfinite(a)
    if bad.any():
        _violate(site, _describe(site, a, bad, "NaN" if allow_inf else "non-finite", info))
    return arr


def check_probabilities(arr: np.ndarray, site: str, tol: float = 1e-9, **info) -> np.ndarray:
    """Assert every entry is a probability: finite and in ``[0, 1]``.

    ``tol`` absorbs float round-off at the interval edges.  Returns
    ``arr`` unchanged.
    """
    if current_run().guards == "off":
        return arr
    a = np.asarray(arr)
    finite = np.isfinite(a)
    bad = ~finite | (a < -tol) | (a > 1.0 + tol)
    if bad.any():
        nonfinite = int((~finite).sum())
        problem = "non-finite" if nonfinite else "out-of-[0,1] probability"
        _violate(site, _describe(site, a, bad, problem, info))
    return arr
