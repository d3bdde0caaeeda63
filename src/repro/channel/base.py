"""The ``Channel`` abstraction — one answer to "does a transmission succeed?".

The paper's whole program is moving algorithms between interference
models (Lemma 2, Theorem 2, Section 8's "further realistic" models), so
the question *how a transmission succeeds* must not be re-decided inside
every consumer.  A :class:`Channel` binds an
:class:`~repro.core.sinr.SINRInstance` to a SINR threshold ``β`` and one
interference model, and exposes the three operations every consumer in
the library needs:

* **Per-slot sampling** — :meth:`Channel.realize` draws one slot's
  success mask for a transmit pattern, :meth:`Channel.realize_batch`
  evaluates a ``(B, n)`` batch of patterns in one vectorized pass.
* **Counterfactual evaluation** — :meth:`Channel.counterfactual`
  answers "had link ``i`` sent, would it have been received?" for every
  link simultaneously, the quantity the Section-6 capacity game feeds
  its learners; :meth:`Channel.counterfactual_batch` answers it for a
  ``(B, n)`` batch of patterns in one vectorized kernel (the post-hoc
  regret analysis evaluates whole recorded games this way).
* **Probabilities** — :meth:`Channel.success_probability` and
  :meth:`Channel.conditional_success_probability` return the exact
  per-link success probabilities where a closed form exists (Theorem 1
  for Rayleigh, the degenerate 0/1 law for non-fading) and fall back to
  Monte-Carlo estimation otherwise (pass ``rng``).

Channels hold **no hidden random state**: every sampling method draws
only from the caller-supplied generator, which is what preserves the
engine's byte-identical ``--jobs`` determinism.  The one exception is
deliberate and documented — :class:`~repro.channel.block.BlockFadingChannel`
keeps the *current coherence block's* draws between calls (that is the
physics being modelled), but refreshes them only from the passed-in
generator.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.sinr import SINRInstance, _as_active_bool
from repro.engine import guards
from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["Channel"]


class Channel(abc.ABC):
    """An interference model bound to an instance and a threshold ``β``.

    Subclasses implement :meth:`realize` and :meth:`counterfactual` (and
    usually override :meth:`realize_batch` with a vectorized path); the
    probability interface raises :class:`NotImplementedError` unless the
    model admits a closed form or the subclass provides an estimator.
    """

    #: Whether success is a deterministic function of the transmit
    #: pattern (no randomness consumed by :meth:`realize`).
    is_deterministic: bool = False

    #: Whether :meth:`success_probability` is exact (closed form) rather
    #: than a Monte-Carlo estimate.
    has_exact_probabilities: bool = False

    def __init__(self, instance: SINRInstance, beta: float):
        if not isinstance(instance, SINRInstance):
            raise TypeError(f"instance must be an SINRInstance, got {type(instance).__name__}")
        self.instance = instance
        self.beta = check_positive(beta, "beta")

    # -- identity ----------------------------------------------------------

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short display name (also the spec-string round trip)."""

    @property
    def n(self) -> int:
        return self.instance.n

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, beta={self.beta:g})"

    # -- helpers for subclasses -------------------------------------------

    def _mask(self, active) -> np.ndarray:
        return _as_active_bool(active, self.n)

    def _patterns(self, patterns) -> np.ndarray:
        """Validate a ``(B, n)`` pattern batch.

        Boolean arrays pass through untouched.  Integer arrays whose
        entries are all 0/1 are coerced to bool — recorded schedules
        often arrive as 0/1 int matrices, and rejecting them outright
        proved a recurring paper cut.  Anything else (floats, ints
        outside {0, 1}) is still an error, now saying what to pass.
        """
        pats = np.asarray(patterns)
        if pats.dtype != np.bool_:
            if pats.dtype.kind in "iu":
                if pats.size and not np.isin(pats, (0, 1)).all():
                    raise TypeError(
                        "integer pattern arrays must contain only 0/1 "
                        "transmit indicators; got values outside {0, 1}"
                    )
                pats = pats.astype(bool)
            else:
                raise TypeError(
                    "patterns must be a boolean mask array (or a 0/1 "
                    f"integer array), got dtype {pats.dtype}"
                )
        if pats.ndim != 2 or pats.shape[1] != self.n:
            raise ValueError(f"patterns must have shape (B, {self.n}), got {pats.shape}")
        return pats

    # -- sampling ----------------------------------------------------------

    @abc.abstractmethod
    def realize(self, active, rng=None) -> np.ndarray:
        """One slot: the boolean success mask under transmit pattern
        ``active`` (success = transmitted *and* cleared ``β``).

        ``active`` is a boolean mask or an integer index list; ``rng`` is
        consumed only by stochastic channels.
        """

    def realize_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        """Success masks for a ``(B, n)`` batch of independent slots.

        The default prefers the channel's vectorized SINR kernel: when
        :meth:`sinr_batch` exposes sampled (or deterministic) SINRs, the
        whole batch is one thresholded kernel call.  Channels without a
        batched SINR path fall back to looping :meth:`realize` over a
        **single child stream spawned from the caller's generator** —
        one ``spawn`` up front, then the slots consume it in row order
        (slot 0 first).  The spawn keeps the caller's generator advanced
        by exactly one spawn regardless of the batch size, so loop and
        vector consumers of the same parent stream stay seed-reproducible
        against each other.  Vectorized channels override this with a
        fused batched kernel.
        """
        pats = self._patterns(patterns)
        _metrics.add("channel.realize_slots", pats.shape[0])
        sinr = self.sinr_batch(pats, rng)
        if sinr is not None:
            # +inf SINR is legitimate (no interference, zero noise); NaN
            # means a poisoned sample and must not be thresholded silently.
            _metrics.add("channel.sinr_evaluations", sinr.size)
            guards.check_finite(
                sinr, f"{self.name}.realize_batch.sinr", allow_inf=True, beta=self.beta
            )
            return (sinr >= self.beta) & pats
        stream = as_generator(rng).spawn(1)[0]
        out = np.zeros(pats.shape, dtype=bool)
        for t in range(pats.shape[0]):
            out[t] = self.realize(pats[t], stream)
        return out

    # -- positional slot fields (the batched slot-loop engine) -------------

    def slot_fields(self, num_slots: int, rng=None):
        """Draw the channel's exogenous randomness for the next
        ``num_slots`` slots, *by position* and pattern-independently.

        The slot-loop engine (:mod:`repro.latency.slotloop`) pre-draws
        fields for a speculative block and evaluates (possibly
        corrected) transmit patterns against them via
        :meth:`apply_slot_fields`.  Two contract clauses make block
        execution schedule-exact:

        * slot ``t``'s field depends only on ``t`` (never on the
          pattern), so a slot invalidated by a served-set change can be
          re-evaluated against the *same* field;
        * fields are drawn strictly in slot order and the draw stream
          advances identically under any grouping of slots into calls,
          so every block size consumes the same randomness.

        The generic fallback spawns one child seed per slot (seed-
        sequence spawning is sequential, hence grouping-invariant) and
        :meth:`apply_slot_fields` replays :meth:`realize` under it;
        vectorized channels override both with array-valued fields.
        """
        if num_slots <= 0:
            return []
        return as_generator(rng).spawn(num_slots)

    def apply_slot_fields(self, fields, patterns, offset: int = 0) -> np.ndarray:
        """Success masks of ``patterns`` against cached ``fields``.

        Row ``t`` of ``patterns`` is evaluated under field
        ``fields[offset + t]``; the call must be repeatable (same
        fields + same patterns → same masks).
        """
        pats = self._patterns(patterns)
        out = np.zeros(pats.shape, dtype=bool)
        for t in range(pats.shape[0]):
            child = np.random.default_rng(fields[offset + t].bit_generator.seed_seq)
            out[t] = self.realize(pats[t], child)
        return out

    def apply_repeated_fields(self, fields, mask, rows: int, offset: int = 0) -> np.ndarray:
        """Success masks of one transmit ``mask`` under ``rows``
        consecutive cached fields, from ``fields[offset]`` on.

        Equal to :meth:`apply_slot_fields` on ``rows`` copies of
        ``mask``, which is what this default does; a channel whose
        per-slot law depends only on the pattern (Rayleigh's Theorem-1
        probabilities) overrides it to evaluate that law once.
        """
        return self.apply_slot_fields(fields, np.broadcast_to(mask, (rows, self.n)), offset)

    @abc.abstractmethod
    def counterfactual(self, active, rng=None) -> np.ndarray:
        """Success-if-sent indicator for *every* link given the others.

        Entry ``i`` answers: had link ``i`` transmitted this slot while
        the senders of ``active`` other than ``i`` transmit, would it
        have been received?  For links in ``active`` this coincides with
        the realized outcome; for silent links it is the counterfactual
        the capacity game's full-information losses require.
        """

    def counterfactual_batch(self, patterns: np.ndarray, rng=None) -> np.ndarray:
        """Success-if-sent masks for a ``(B, n)`` batch of patterns.

        Row ``t`` answers :meth:`counterfactual` for ``patterns[t]`` — the
        quantity the Section-6 regret analysis needs for a whole recorded
        game at once.  The default loops over :meth:`counterfactual` with
        the caller's generator consumed in row order; every library
        member overrides it with a single batched kernel.
        """
        pats = self._patterns(patterns)
        _metrics.add("channel.counterfactual_slots", pats.shape[0])
        gen = as_generator(rng)
        out = np.zeros(pats.shape, dtype=bool)
        for t in range(pats.shape[0]):
            out[t] = self.counterfactual(pats[t], gen)
        return out

    def sinr_batch(self, patterns: np.ndarray, rng=None) -> "np.ndarray | None":
        """Sampled (or deterministic) SINR values per pattern, if the
        channel exposes them; ``None`` for success-only channels (e.g.
        the Bernoulli Rayleigh fast path, which never materialises SINRs).
        """
        return None

    # -- probabilities -----------------------------------------------------

    def success_probability(self, q, rng=None) -> np.ndarray:
        """Per-link probability of transmitting *and* clearing ``β`` when
        every sender ``j`` transmits independently with probability
        ``q_j``.

        Exact where the model admits a closed form
        (``has_exact_probabilities``); Monte-Carlo channels estimate it
        and therefore require ``rng``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no success-probability form; "
            "use a Monte-Carlo channel's estimator or sample realize()"
        )

    def conditional_success_probability(self, q, rng=None) -> np.ndarray:
        """Per-link probability of clearing ``β`` *given* the link sends,
        while the other senders transmit with probabilities ``q``."""
        raise NotImplementedError(
            f"{type(self).__name__} has no conditional-probability form"
        )

    def expected_successes(self, subset, rng=None) -> float:
        """Expected number of successes when exactly the links of
        ``subset`` transmit — the replay quantity of Lemma 2 / E14.

        Default: sum of :meth:`success_probability` at the 0/1 pattern.
        """
        mask = self._mask(np.asarray(subset))
        if not mask.any():
            return 0.0
        probs = self.success_probability(mask.astype(np.float64), rng)
        return float(probs[mask].sum())

    # -- derived channels --------------------------------------------------

    def subchannel(self, indices) -> "Channel":
        """Channel restricted to the given links (recursive schedulers).

        Stateful channels (block fading) may refuse; the schedulers in
        :mod:`repro.latency` therefore evaluate service on the *full*
        instance with global masks and never need this mid-run.
        """
        return type(self)(self.instance.subinstance(indices), self.beta)

    def reset(self) -> None:
        """Forget any temporal state (coherence blocks); no-op here."""
