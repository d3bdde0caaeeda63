"""Monte-Carlo estimators for the Rayleigh-fading model.

These estimators serve two roles: validating the closed forms (Theorem 1,
Lemma 1) against brute-force sampling, and evaluating quantities that have
no closed form — chiefly the expected *non-binary* utility
``E[Σ u_i(γ_i^R)]`` for Shannon-type utility functions.

Sampling is fully batched: each chunk draws its ``(T, n)`` transmit
patterns, then hands them to the per-sender sampler
(:func:`repro.fading.models.simulate_sinr_patterns`), which draws one
``Exp(1)`` multiplier per (slot, sender) and evaluates every slot's SINR
against its own pattern in one ``(T, n) @ (n, n)`` product.  Chunk
sizes are bounded so memory stays constant regardless of
``num_samples``.

Backend routing: the matrix products inside each chunk go through the
array-backend shim transitively (the sampler pulls the instance's
cached gain operator), so ``--dtype float32`` and ``--topk``
apply here without any code in this module touching the backend.  Chunk
sizes deliberately do **not** scale with the compute dtype: each outer
chunk interleaves pattern draws with fading draws, so changing the
chunk boundary would reassign RNG variates and move the estimate by far
more than the dtype's documented tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.sinr import SINRInstance
from repro.fading.models import simulate_sinr_patterns
from repro.fading.success import success_probability
from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_vector

__all__ = [
    "estimate_success_probability",
    "estimate_expected_utility",
    "expected_successes_exact",
]


def expected_successes_exact(instance: SINRInstance, q, beta) -> float:
    """Exact expected number of successful transmissions ``Σ_i Q_i(q, β)``.

    For binary utilities this *is* the expected capacity — no sampling
    needed thanks to Theorem 1 and linearity of expectation.
    """
    return float(success_probability(instance, q, beta).sum())


def _sample_chunk_size(n: int) -> int:
    """Patterns per outer chunk: ``16_000_000 // n²``.

    The sampler draws only ``(T, n)`` multipliers per chunk, so memory
    alone would allow far larger chunks.  The bound stays as it is: it
    sets how each chunk's pattern draws interleave with its fading
    draws: any other value reassigns variates and moves the estimates
    (and E4's and E5's result bytes)."""
    return max(1, 16_000_000 // max(1, n * n))


def estimate_success_probability(
    instance: SINRInstance,
    q,
    beta: float,
    rng=None,
    *,
    num_samples: int = 1000,
) -> np.ndarray:
    """Brute-force estimate of ``Q_i(q, β)`` by explicit simulation.

    Each sample draws a transmit pattern (independent Bernoulli ``q_j``
    per sender) and a fresh fading realisation, then counts threshold
    successes.  Used by the test suite and the E4 bench to validate
    Theorem 1; production code should call
    :func:`repro.fading.success.success_probability` instead.

    Returns the per-link success frequency, shape ``(n,)``.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    _metrics.add("mc.samples", num_samples)
    gen = as_generator(rng)
    qv = check_probability_vector(q, instance.n)
    counts = np.zeros(instance.n, dtype=np.int64)
    block = _sample_chunk_size(instance.n)
    done = 0
    while done < num_samples:
        t = min(block, num_samples - done)
        patterns = gen.random((t, instance.n)) < qv
        sinr = simulate_sinr_patterns(instance, patterns, gen)
        counts += ((sinr >= beta) & patterns).sum(axis=0)
        done += t
    return counts / num_samples


def estimate_expected_utility(
    instance: SINRInstance,
    utility: Callable[[np.ndarray], np.ndarray],
    q,
    rng=None,
    *,
    num_samples: int = 1000,
) -> tuple[float, np.ndarray]:
    """Estimate ``E[Σ_i u_i(γ_i^R)]`` under transmission probabilities ``q``.

    Parameters
    ----------
    instance:
        Mean signals and noise.
    utility:
        Vectorized map from an SINR array of shape ``(T, n)`` to utilities
        of the same shape (e.g.
        :meth:`repro.utility.UtilityProfile.evaluate`).  Silent links have
        SINR 0; the utility of a silent link is counted as 0 regardless of
        ``utility``'s value at 0, matching the convention that only
        transmission attempts generate utility.
    q:
        Per-link transmission probabilities.
    num_samples:
        Number of independent (pattern, fading) samples.

    Returns
    -------
    (total, per_link):
        Estimated expected total utility, and the per-link breakdown.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    _metrics.add("mc.samples", num_samples)
    gen = as_generator(rng)
    qv = check_probability_vector(q, instance.n)
    per_link = np.zeros(instance.n, dtype=np.float64)
    block = _sample_chunk_size(instance.n)
    done = 0
    while done < num_samples:
        t = min(block, num_samples - done)
        patterns = gen.random((t, instance.n)) < qv
        sinr = simulate_sinr_patterns(instance, patterns, gen)
        vals = np.asarray(utility(sinr))
        per_link += np.where(patterns, vals, 0.0).sum(axis=0)
        done += t
    per_link /= num_samples
    return float(per_link.sum()), per_link
