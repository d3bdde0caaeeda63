"""The Rayleigh channel — Theorem-1 closed form + distribution-exact sampling.

The fast path throughout.  Fix the transmit pattern and draw the
Section-2 gain matrix ``S(j, i) ~ Exp(S̄(j, i))``, independent over
ordered pairs.  Receiver ``i``'s success, ``S(i,i) ≥ β(Σ_{j≠i} S(j,i) +
ν)``, reads only column ``i`` of that matrix.  Distinct receivers read
disjoint columns, so their success events are mutually independent,
and each has exactly the Theorem-1 probability.  Sampling independent
Bernoullis with those probabilities is therefore
*distribution-identical* to explicit exponential sampling
(:func:`repro.fading.models.simulate_slots`) at a fraction of the cost;
``tests/fading/test_rayleigh.py`` compares the two statistically.  The
closed form also makes every probability query exact.

Since PR 3 the channel owns one lazily built
:class:`~repro.fading.success.Theorem1Kernel`: instances are frozen and
``β`` is fixed at construction, so the ``O(n²)`` log-factor and weight
tensors are derived once and every subsequent round-level call
(``realize``/``counterfactual``) is a single matvec against the cache
instead of a fresh factor-matrix build.

Array-backend routing is inherited from the kernel: its products run
through the operator shim (:mod:`repro.backend`), so ``--dtype float32``
and ``--topk`` sparsification apply to this channel without any code
here touching the backend — and the default config keeps every path
byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.channel.base import Channel
from repro.fading.success import Theorem1Kernel
from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_vector

__all__ = ["RayleighChannel"]


class RayleighChannel(Channel):
    """Exact Rayleigh channel (Theorem 1 + Bernoulli fast path)."""

    has_exact_probabilities = True

    @property
    def name(self) -> str:
        return "rayleigh"

    @property
    def kernel(self) -> Theorem1Kernel:
        """The cached Theorem-1 tensors for this ``(instance, β)`` pair."""
        kern = getattr(self, "_kernel", None)
        if kern is None:
            kern = Theorem1Kernel(self.instance, self.beta)
            self._kernel = kern
        return kern

    def realize(self, active, rng=None) -> np.ndarray:
        mask = self._mask(active)
        gen = as_generator(rng)
        p = np.where(mask, self.kernel.conditional_binary(mask), 0.0)
        return gen.random(self.n) < p

    def realize_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        pats = self._patterns(patterns)
        _metrics.add("channel.realize_slots", pats.shape[0])
        gen = as_generator(rng)
        p = self.kernel.conditional_batch(pats)
        return pats & (gen.random(pats.shape) < p)

    def slot_fields(self, num_slots: int, rng=None) -> np.ndarray:
        """One uniform row per slot — the Bernoulli fast path's only
        randomness.  ``gen.random`` fills element-sequentially, so any
        grouping of slots into calls draws identical rows."""
        return as_generator(rng).random((max(0, num_slots), self.n))

    def apply_slot_fields(self, fields, patterns, offset: int = 0) -> np.ndarray:
        """Threshold the cached uniforms against the exact conditional
        probabilities of the (possibly corrected) patterns.

        Only transmitting links can succeed, so probabilities are needed
        solely at the transmitting entries.  Entries of sparse slots go
        straight to the kernel's exact ragged gather
        (:meth:`~repro.fading.success.Theorem1Kernel.conditional_at`,
        cost ``a`` per entry).  Entries of dense slots (active count
        above the kernel's ``screen_cutoff``) are first screened against
        the top-K interferer upper bound
        (:meth:`~repro.fading.success.Theorem1Kernel.screen_bound`, cost
        ``K`` per entry): a uniform at or above the bound is at or above
        the exact probability too, so the entry fails without the ``a²``
        work, and only the rare survivors are evaluated exactly.  Either
        way every surviving comparison is ``u < p`` with the exact ``p``,
        so outcomes are bit-identical to unscreened evaluation."""
        pats = self._patterns(patterns)
        out = np.zeros(pats.shape, dtype=bool)
        rows, cols = np.nonzero(pats)
        if rows.size == 0:
            return out
        u = fields[offset : offset + pats.shape[0]]
        kern = self.kernel
        if not kern.supports_entry_gather:
            p = kern.conditional_batch(pats)[rows, cols]
            hit = u[rows, cols] < p
            out[rows[hit], cols[hit]] = True
            return out
        u_e = u[rows, cols]
        counts = np.bincount(rows, minlength=pats.shape[0])
        cutoff = kern.screen_cutoff
        if counts.max() <= cutoff:
            # No dense slot: every entry goes straight to the exact gather.
            p = kern.conditional_at(pats, rows, cols, actives=(rows, cols, counts))
            live = u_e < p
            kern.note_hit_rate(rows.size, int(live.sum()))
            out[rows[live], cols[live]] = True
            return out
        screened = counts[rows] > cutoff
        survive = np.ones(rows.size, dtype=bool)
        if screened.any():
            bound = kern.screen_bound(pats, rows[screened], cols[screened])
            survive[screened] = u_e[screened] < bound
        srows = rows[survive]
        scols = cols[survive]
        p = kern.conditional_at(pats, srows, scols, actives=(rows, cols, counts))
        live = u_e[survive] < p
        plain = ~screened[survive]
        kern.note_hit_rate(int(plain.sum()), int(live[plain].sum()))
        out[srows[live], scols[live]] = True
        return out

    def apply_repeated_fields(self, fields, mask, rows: int, offset: int = 0) -> np.ndarray:
        """Threshold ``rows`` rows of cached uniforms against one
        pattern's exact conditional probabilities, evaluated once.

        On the entry-gather path each entry's probability depends only
        on its row's active set (:meth:`~repro.fading.success.
        Theorem1Kernel.conditional_at`), so every row of a repeated
        pattern has the same values, and ``u < p`` per row gives
        :meth:`apply_slot_fields`'s outcomes on the repeated batch.  A
        pattern that batch would screen (active count above the cutoff)
        is evaluated exactly here, with the same outcomes, and leaves
        the hit-rate average alone as screening does.  Top-k and reduced
        precision take the batch path."""
        kern = self.kernel
        if not kern.supports_entry_gather:
            return super().apply_repeated_fields(fields, mask, rows, offset)
        pats = self._patterns(mask[None, :])
        cols = np.flatnonzero(pats[0])
        out = np.zeros((rows, self.n), dtype=bool)
        if cols.size == 0:
            return out
        p = kern.conditional_at(pats, np.zeros(cols.size, dtype=np.intp), cols)
        hit = fields[offset : offset + rows, cols] < p
        out[:, cols] = hit
        if cols.size <= kern.screen_cutoff:
            kern.note_hit_rate(hit.size, int(hit.sum()))
        return out

    def counterfactual(self, active, rng=None) -> np.ndarray:
        """Sampled success-if-sent with the exact conditional law.

        The conditional probability of link ``i`` does not depend on its
        own entry of the pattern, so one closed-form evaluation covers
        senders (realized outcome) and idlers (counterfactual) alike.
        """
        mask = self._mask(active)
        gen = as_generator(rng)
        return gen.random(self.n) < self.kernel.conditional_binary(mask)

    def counterfactual_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        """Batched success-if-sent draws: one ``(B, n) @ (n, n)`` product
        against the cached log factors plus one uniform block.

        Row ``t`` has the same law as ``counterfactual(patterns[t])``, and
        the uniforms are consumed in row order, so a batch draws exactly
        the variates the per-round loop would.
        """
        pats = self._patterns(patterns)
        _metrics.add("channel.counterfactual_slots", pats.shape[0])
        gen = as_generator(rng)
        return gen.random(pats.shape) < self.kernel.conditional_batch(pats)

    def success_probability(self, q, rng=None) -> np.ndarray:
        qv = check_probability_vector(q, self.n)
        return qv * self.kernel.conditional(qv)

    def conditional_success_probability(self, q, rng=None) -> np.ndarray:
        qv = check_probability_vector(q, self.n)
        return self.kernel.conditional(qv)
