"""The Rayleigh-fading model (Sections 2–3 of the paper) and its
Section-8 generalisations.

Received signal strengths are independent exponential random variables
``S(j, i) ~ Exp(mean = S̄(j, i))``, redrawn every slot.  The package
provides:

* :mod:`~repro.fading.models` — the fading families (Rayleigh,
  Nakagami-m, Rician-K, none) and one Monte-Carlo sampler per sampling
  scheme, each taking the family as ``model`` with Rayleigh as the
  default: :func:`simulate_sinr` / :func:`simulate_slots` draw full gain
  matrices for a fixed pattern (the exact joint law across links), and
  :func:`simulate_sinr_patterns` draws one multiplier per sender per slot
  for a batch of patterns (exact per-link marginals, the hot path).
* :mod:`~repro.fading.success` — Theorem 1's closed-form success
  probability ``Q_i(q_1..q_n, β)``; :class:`repro.channel.RayleighChannel`
  samples Rayleigh slots from it as independent Bernoullis.
* :mod:`~repro.fading.bounds` — Lemma 1's lower/upper exponential bounds
  and the Observation 1 inequalities they rest on.
* :mod:`~repro.fading.montecarlo` — estimators of success probabilities
  and expected utilities for validation and for non-binary utilities.
"""

from repro.fading.bounds import (
    observation1_first,
    observation1_second,
    success_probability_lower,
    success_probability_upper,
)
from repro.fading.models import (
    FadingModel,
    NakagamiFading,
    NoFading,
    RayleighFading,
    RicianFading,
    expected_successes_with_model,
    simulate_sinr,
    simulate_sinr_patterns,
    simulate_slots,
)
from repro.fading.montecarlo import (
    estimate_expected_utility,
    estimate_success_probability,
    expected_successes_exact,
)
from repro.fading.success import (
    success_probability,
    success_probability_conditional,
)

__all__ = [
    "FadingModel",
    "NakagamiFading",
    "NoFading",
    "RayleighFading",
    "RicianFading",
    "estimate_expected_utility",
    "estimate_success_probability",
    "expected_successes_exact",
    "expected_successes_with_model",
    "observation1_first",
    "observation1_second",
    "simulate_sinr",
    "simulate_sinr_patterns",
    "simulate_slots",
    "success_probability",
    "success_probability_conditional",
    "success_probability_lower",
    "success_probability_upper",
]
