"""The Rayleigh-fading model (Sections 2–3 of the paper).

Received signal strengths are independent exponential random variables
``S(j, i) ~ Exp(mean = S̄(j, i))``, redrawn every slot.  The package
provides:

* :mod:`~repro.fading.rayleigh` — physics-faithful slot simulation by
  explicit exponential sampling, plus the exact-probability fast path
  (success events of distinct receivers depend on disjoint columns of the
  draw matrix, hence are conditionally independent given the transmit
  pattern — so Bernoulli sampling from Theorem 1 is *exactly* equivalent).
* :mod:`~repro.fading.success` — Theorem 1's closed-form success
  probability ``Q_i(q_1..q_n, β)``.
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
    simulate_slots_with_model,
)
from repro.fading.montecarlo import (
    estimate_expected_utility,
    estimate_success_probability,
    expected_successes_exact,
)
from repro.fading.rayleigh import (
    sample_fading_gains,
    simulate_sinr,
    simulate_sinr_patterns,
    simulate_slot,
    simulate_slots,
    simulate_slots_bernoulli,
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
    "simulate_slots_with_model",
    "observation1_first",
    "observation1_second",
    "sample_fading_gains",
    "simulate_sinr",
    "simulate_sinr_patterns",
    "simulate_slot",
    "simulate_slots",
    "simulate_slots_bernoulli",
    "success_probability",
    "success_probability_conditional",
    "success_probability_lower",
    "success_probability_upper",
]
