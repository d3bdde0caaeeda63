"""Monte-Carlo channel: any :class:`~repro.fading.models.FadingModel`.

Section 8 hopes the paper's techniques carry to "interference models
capturing further realistic properties"; this channel makes every such
family (Nakagami-m, Rician-K, or anything satisfying the
:class:`~repro.fading.models.FadingModel` contract) runnable behind the
same interface as the exact Rayleigh channel.  No closed form exists
for these families, so:

* per-slot realisation draws instantaneous gains explicitly
  (physics-faithful, exact joint law across links);
* batched pattern evaluation uses the per-sender sampler
  :func:`repro.fading.models.simulate_sinr_patterns` (common random
  numbers: exact per-link marginals, one ``(B, n) @ (n, n)`` product
  per chunk);
* probability queries are Monte-Carlo estimates (``rng`` required,
  sample count set by ``mc_slots``).
"""

from __future__ import annotations

import numpy as np

from repro.channel.base import Channel
from repro.core.sinr import SINRInstance
from repro.engine import guards
from repro.fading.models import (
    FadingModel,
    draw_unit_multipliers,
    simulate_sinr_patterns,
    simulate_slots,
    sinr_from_unit_multipliers,
)
from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_vector

__all__ = ["MonteCarloChannel"]


class MonteCarloChannel(Channel):
    """Sampling-based channel for an arbitrary fading family.

    Parameters
    ----------
    instance, beta:
        Mean signals, noise, and the SINR threshold.
    model:
        The fading family (e.g. ``NakagamiFading(m=2)``).
    mc_slots:
        Sample count for the probability estimators (they have no
        closed form here; see :class:`~repro.channel.rayleigh.RayleighChannel`
        for the exact special case ``NakagamiFading(m=1)``).
    """

    def __init__(
        self,
        instance: SINRInstance,
        beta: float,
        model: FadingModel,
        *,
        mc_slots: int = 2000,
    ):
        super().__init__(instance, beta)
        if not isinstance(model, FadingModel):
            raise TypeError(f"model must be a FadingModel, got {type(model).__name__}")
        if mc_slots <= 0:
            raise ValueError(f"mc_slots must be positive, got {mc_slots}")
        self.model = model
        self.mc_slots = int(mc_slots)

    @property
    def name(self) -> str:
        return self.model.name

    def realize(self, active, rng=None) -> np.ndarray:
        return simulate_slots(
            self.instance, self._mask(active), self.beta, rng, model=self.model
        )[0]

    def realize_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        pats = self._patterns(patterns)
        _metrics.add("channel.realize_slots", pats.shape[0])
        _metrics.add("channel.sinr_evaluations", pats.size)
        sinr = simulate_sinr_patterns(self.instance, pats, rng, model=self.model)
        return (sinr >= self.beta) & pats

    def slot_fields(self, num_slots: int, rng=None) -> np.ndarray:
        """One unit-mean fading multiplier per (slot, sender) — the CRN
        kernel's randomness, drawn grouping-invariantly (non-elementwise
        models fall back to per-slot draws)."""
        return draw_unit_multipliers(self.model, self.n, rng, num_slots)

    def apply_slot_fields(self, fields, patterns, offset: int = 0) -> np.ndarray:
        """Deterministic SINR evaluation of (possibly corrected)
        patterns against the cached multipliers."""
        pats = self._patterns(patterns)
        draws = fields[offset : offset + pats.shape[0]]
        sinr = sinr_from_unit_multipliers(self.instance, pats, draws)
        return (sinr >= self.beta) & pats

    def counterfactual(self, active, rng=None) -> np.ndarray:
        """Physics-faithful had-I-sent draw: sample the full gain matrix
        once and evaluate every link's SINR against the realized senders
        ``j ≠ i`` — the exact joint counterfactual law of the family."""
        mask = self._mask(active)
        gen = as_generator(rng)
        draws = self.model.sample(self.instance.gains, gen)
        signal = np.diagonal(draws)
        # Selection from the mean gains, values from this slot's draw
        # matrix: the draws stay dense so randomness consumption never
        # depends on the backend config.
        op = self.instance.gains_operator(keep_diagonal=True)
        total = op.gather_matmul(mask.astype(op.dtype), draws)
        denom = total - mask * signal + self.instance.noise
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(denom > 0.0, signal / np.maximum(denom, 1e-300), np.inf)
        return sinr >= self.beta

    def counterfactual_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        """Batched had-I-sent sampling via the common-random-numbers
        kernel: one unit-mean fading multiplier per (slot, sender) and one
        ``(B, n) @ (n, n)`` product per memory-bounded chunk.

        Per-(slot, link) marginals are exactly the family's
        counterfactual law (see
        :func:`repro.fading.models.simulate_sinr_patterns`);
        only the within-slot dependence across links differs from the
        explicit per-slot gain-matrix draw of :meth:`counterfactual`,
        which leaves every per-link frequency estimator unbiased.
        """
        pats = self._patterns(patterns)
        _metrics.add("channel.counterfactual_slots", pats.shape[0])
        sinr = simulate_sinr_patterns(
            self.instance, pats, rng, model=self.model, counterfactual=True
        )
        return sinr >= self.beta

    def sinr_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        return simulate_sinr_patterns(
            self.instance, self._patterns(patterns), rng, model=self.model
        )

    def success_probability(self, q, rng=None) -> np.ndarray:
        """Monte-Carlo estimate over ``mc_slots`` independent
        (pattern, fading) samples; ``rng`` is required."""
        qv = check_probability_vector(q, self.n)
        _metrics.add("mc.samples", self.mc_slots)
        gen = as_generator(rng)
        patterns = gen.random((self.mc_slots, self.n)) < qv
        hits = self.realize_batch(patterns, gen)
        est = hits.sum(axis=0) / self.mc_slots
        return guards.check_probabilities(
            est, f"{self.name}.success_probability", mc_slots=self.mc_slots
        )

    def conditional_success_probability(self, q, rng=None) -> np.ndarray:
        """Estimated success-given-send frequency while the *other*
        senders transmit with probabilities ``q``."""
        qv = check_probability_vector(q, self.n)
        _metrics.add("mc.samples", self.mc_slots)
        gen = as_generator(rng)
        patterns = gen.random((self.mc_slots, self.n)) < qv
        sinr = simulate_sinr_patterns(
            self.instance, patterns, gen, model=self.model, counterfactual=True
        )
        est = (sinr >= self.beta).sum(axis=0) / self.mc_slots
        return guards.check_probabilities(
            est, f"{self.name}.conditional_success_probability", mc_slots=self.mc_slots
        )

    def subchannel(self, indices) -> "MonteCarloChannel":
        return MonteCarloChannel(
            self.instance.subinstance(indices),
            self.beta,
            self.model,
            mc_slots=self.mc_slots,
        )
