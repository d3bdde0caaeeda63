"""The deterministic (non-fading) SINR channel of Section 2."""

from __future__ import annotations

import numpy as np

from repro.backend import gain_operator
from repro.channel.base import Channel
from repro.core.sinr import SINRInstance
from repro.obs import metrics as _metrics
from repro.run_context import current_run
from repro.utils.validation import check_probability_vector

__all__ = ["NonFadingChannel"]


class NonFadingChannel(Channel):
    """Success is the deterministic test ``γ^nf ≥ β``; no randomness.

    The degenerate member of the channel family: :meth:`realize`
    consumes no randomness, probabilities are 0/1 indicators, and the
    batched path is PR 1's single ``(B, n) @ (n, n)`` product.

    The counterfactual paths run against a cached ``β·S̄`` tensor
    (instances are frozen, so it never invalidates): "had ``i`` sent"
    reduces to the interference-margin test
    ``Σ_{j active, j≠i} β S̄(j,i) ≤ S̄(i,i) − βν``, algebraically the
    SINR threshold test without the per-call division — one matvec
    (or one matmul for a batch) and one comparison per evaluation.
    """

    is_deterministic = True
    has_exact_probabilities = True

    @property
    def name(self) -> str:
        return "nonfading"

    @property
    def _beta_gains(self) -> np.ndarray:
        """Cached ``β·S̄(j,i)`` with a zeroed diagonal (own signal never
        interferes with its own reception)."""
        bg = getattr(self, "_beta_gains_cache", None)
        if bg is None:
            bg = self.beta * self.instance.gains
            np.fill_diagonal(bg, 0.0)
            bg.setflags(write=False)
            self._beta_gains_cache = bg
        return bg

    def _bg_op(self):
        """Backend operator over the cached ``β·S̄`` tensor, keyed by the
        run's backend config (``keep_diagonal=False`` — the diagonal is zero).
        Under the default config this wraps the cached float64 array and
        the margin test is byte-identical to ``pats @ β·S̄``."""
        ops = getattr(self, "_bg_ops_cache", None)
        if ops is None:
            ops = self._bg_ops_cache = {}
        config = current_run().backend
        op = ops.get(config)
        if op is None:
            op = ops[config] = gain_operator(self._beta_gains, config)
        return op

    @property
    def _margin(self) -> np.ndarray:
        """Cached interference budget ``S̄(i,i) − βν`` per link."""
        m = getattr(self, "_margin_cache", None)
        if m is None:
            m = np.ascontiguousarray(self.instance.signal) - self.beta * self.instance.noise
            m.setflags(write=False)
            self._margin_cache = m
        return m

    def realize(self, active, rng=None) -> np.ndarray:
        return self.instance.successes(self._mask(active), self.beta)

    def realize_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        pats = self._patterns(patterns)
        _metrics.add("channel.realize_slots", pats.shape[0])
        _metrics.add("channel.sinr_evaluations", pats.size)
        return (self.instance.sinr_batch(pats) >= self.beta) & pats

    def slot_fields(self, num_slots: int, rng=None):
        """Deterministic channel: no exogenous randomness, no fields."""
        return None

    def apply_slot_fields(self, fields, patterns, offset: int = 0) -> np.ndarray:
        return self.realize_batch(patterns)

    def counterfactual(self, active, rng=None) -> np.ndarray:
        """Deterministic had-I-sent test against the realized senders.

        Reception of ``i`` depends only on the *others*: interference at
        ``r_i`` from the active senders ``j ≠ i`` (whether ``i`` itself
        sent is irrelevant to its own counterfactual).
        """
        a = self._mask(active)
        op = self._bg_op()
        return op.matvec(a.astype(op.dtype)) <= self._margin

    def counterfactual_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        """Batched had-I-sent test: one ``(B, n) @ (n, n)`` product
        against the cached ``β·S̄`` tensor, no randomness consumed."""
        pats = self._patterns(patterns)
        _metrics.add("channel.counterfactual_slots", pats.shape[0])
        op = self._bg_op()
        return op.matmul(pats.astype(op.dtype)) <= self._margin

    def sinr_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        return self.instance.sinr_batch(self._patterns(patterns))

    def success_probability(self, q, rng=None) -> np.ndarray:
        """Exact only for binary patterns (the deterministic replay case);
        fractional ``q`` has no per-link closed form in this model."""
        qv = check_probability_vector(q, self.n)
        if not np.all((qv == 0.0) | (qv == 1.0)):
            raise NotImplementedError(
                "non-fading success probabilities are closed-form only for "
                "binary transmit patterns; sample realize_batch for fractional q"
            )
        mask = qv.astype(bool)
        return self.realize(mask).astype(np.float64)

    def conditional_success_probability(self, q, rng=None) -> np.ndarray:
        qv = check_probability_vector(q, self.n)
        if not np.all((qv == 0.0) | (qv == 1.0)):
            raise NotImplementedError(
                "non-fading conditional probabilities are closed-form only "
                "for binary transmit patterns"
            )
        return self.counterfactual(qv.astype(bool)).astype(np.float64)
