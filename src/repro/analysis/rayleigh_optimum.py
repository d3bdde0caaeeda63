"""Numerical maximization of the expected Rayleigh capacity.

The Rayleigh-fading optimum for binary utilities is

.. math::

    \\mathrm{OPT}^R = \\max_{q \\in [0,1]^n} F(q), \\qquad
    F(q) = \\sum_i q_i\\, C_i(q),

where ``C_i(q)`` is the conditional Theorem-1 success probability.  This
is the quantity Theorem 2 compares against the non-fading optimum.
``F`` is smooth with a closed-form gradient:

.. math::

    C_i(q) = e^{-\\beta\\nu/\\bar S_{ii}}\\prod_{j \\ne i}(1 - q_j w_{ji}),
    \\qquad w_{ji} = \\frac{\\beta \\bar S_{ji}}{\\beta \\bar S_{ji} +
    \\bar S_{ii}},

.. math::

    \\frac{\\partial F}{\\partial q_k} = C_k(q)
        \\;-\\; \\sum_{i \\ne k} q_i C_i(q)\\,
        \\frac{w_{ki}}{1 - q_k w_{ki}} .

``F`` is multilinear in ``q`` (affine in each coordinate), so its maximum
over the box is attained at a vertex — i.e. at a *deterministic* transmit
set — but it is not concave, so we run multi-start projected gradient
ascent and, exploiting per-coordinate affinity, a final coordinate
rounding pass that can only improve the value.  The output is therefore
a certified *lower* bound on ``OPT^R`` that empirically matches the best
vertex found by combinatorial search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sinr import SINRInstance
from repro.fading.success import Theorem1Kernel, success_probability
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive, check_probability_vector

__all__ = [
    "expected_capacity",
    "expected_capacity_gradient",
    "optimize_transmission_probabilities",
    "RayleighOptimumResult",
]


def expected_capacity(instance: SINRInstance, q, beta: float) -> float:
    """``F(q) = Σ_i q_i C_i(q)`` — exact expected number of successes."""
    check_positive(beta, "beta")
    return float(success_probability(instance, q, beta).sum())


def expected_capacity_gradient(instance: SINRInstance, q, beta: float) -> np.ndarray:
    """Closed-form gradient ``∇F(q)`` (see module docstring).

    ``O(n²)`` per call; validated against finite differences in the test
    suite.
    """
    check_positive(beta, "beta")
    qv = check_probability_vector(q, instance.n)
    kernel = Theorem1Kernel(instance, beta)
    w = kernel.weights
    cond = kernel.conditional(qv)  # C_i(q)
    # ratio[k, i] = w[k, i] / (1 - q_k w[k, i]); the diagonal is zero.
    ratio = w / (1.0 - qv[:, None] * w)
    penalty = ratio @ (qv * cond)  # Σ_i q_i C_i w_ki/(1 - q_k w_ki)
    return cond - penalty


def _coordinate_round(instance: SINRInstance, q: np.ndarray, beta: float) -> np.ndarray:
    """Round coordinates to {0, 1} greedily.

    ``F`` is affine in each ``q_k``, so pushing ``q_k`` to whichever
    endpoint has the larger value never decreases ``F``.  One sweep per
    coordinate, evaluated exactly.
    """
    q = q.copy()
    for k in np.argsort(-q):  # most-committed coordinates first
        base = q.copy()
        base[k] = 0.0
        f0 = expected_capacity(instance, base, beta)
        base[k] = 1.0
        f1 = expected_capacity(instance, base, beta)
        q[k] = 1.0 if f1 >= f0 else 0.0
    return q


@dataclass(frozen=True)
class RayleighOptimumResult:
    """Outcome of the numerical Rayleigh-optimum search.

    Attributes
    ----------
    q:
        The best transmission-probability vector found (0/1 after
        rounding).
    value:
        ``F(q)`` — a certified lower bound on the Rayleigh optimum.
    restarts_used:
        Number of ascent restarts run.
    """

    q: np.ndarray
    value: float
    restarts_used: int


def optimize_transmission_probabilities(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    restarts: int = 6,
    iterations: int = 150,
    step: float = 0.15,
    seeds: "list[np.ndarray] | None" = None,
) -> RayleighOptimumResult:
    """Multi-start projected gradient ascent on ``F`` with final rounding.

    Parameters
    ----------
    instance, beta:
        The Rayleigh instance and threshold.
    rng:
        Randomness for restart initialisation.
    restarts:
        Number of random initial points (in addition to ``seeds``).
    iterations, step:
        Ascent iterations and step size (diminishing as ``step/sqrt(t)``).
    seeds:
        Optional warm starts, e.g. the indicator of a good non-fading
        feasible set — always worth supplying, since the non-fading
        optimum is a lower bound on the Rayleigh optimum up to ``1/e``.

    Returns
    -------
    :class:`RayleighOptimumResult`
    """
    check_positive(beta, "beta")
    if restarts < 0 or iterations <= 0:
        raise ValueError("restarts must be >= 0 and iterations positive")
    gen = as_generator(rng)
    n = instance.n
    starts: list[np.ndarray] = [np.asarray(s, dtype=np.float64) for s in (seeds or [])]
    starts.append(np.full(n, 0.5))
    for _ in range(restarts):
        starts.append(gen.random(n))

    best_q = np.zeros(n)
    best_value = 0.0
    for q0 in starts:
        q = np.clip(q0, 0.0, 1.0)
        for t in range(1, iterations + 1):
            grad = expected_capacity_gradient(instance, q, beta)
            q = np.clip(q + (step / np.sqrt(t)) * grad, 0.0, 1.0)
        q = _coordinate_round(instance, q, beta)
        value = expected_capacity(instance, q, beta)
        if value > best_value:
            best_value, best_q = value, q
    return RayleighOptimumResult(q=best_q, value=best_value, restarts_used=len(starts))
