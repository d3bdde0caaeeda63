"""A family of stochastic fading models beyond Rayleigh.

Section 8 of the paper hopes its techniques "can also be applied
accordingly to interference models capturing further realistic
properties".  This module makes that executable: a small fading-model
abstraction with the three classic generalisations, all normalised so
the *mean* received power equals the non-fading value ``S̄(j, i)``:

* :class:`RayleighFading` — power ``~ Exp(mean)`` (the paper's model;
  rich scattering, no line of sight).
* :class:`NakagamiFading` — power ``~ Gamma(m, mean/m)``.  ``m = 1`` *is*
  Rayleigh; ``m → ∞`` concentrates at the mean, i.e. the **non-fading
  model is the Nakagami limit** — the family interpolates between the
  paper's two worlds, which the E14 bench exploits.
* :class:`RicianFading` — power of a line-of-sight component plus
  scattered Gaussian field, ``K`` the LoS-to-scatter power ratio.
  ``K = 0`` is Rayleigh; ``K → ∞`` approaches non-fading.
* :class:`NoFading` — the deterministic model as a degenerate member.

Only Rayleigh has the closed-form Theorem-1 success probability; the
other families are evaluated by Monte Carlo
(:func:`simulate_slots_with_model`, and
:func:`expected_successes_with_model` for the replay experiments).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.sinr import SINRInstance, _as_active_bool
from repro.fading.rayleigh import _sinr_from_draws
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = [
    "FadingModel",
    "RayleighFading",
    "NakagamiFading",
    "RicianFading",
    "NoFading",
    "draw_unit_multipliers",
    "simulate_sinr_patterns_with_model",
    "simulate_slots_with_model",
    "sinr_from_unit_multipliers",
    "expected_successes_with_model",
]


class FadingModel(abc.ABC):
    """Distribution of instantaneous power gains around their means."""

    #: Whether :meth:`sample` consumes randomness element-sequentially —
    #: i.e. drawing ``size=a`` then ``size=b`` rows yields the same rows
    #: as one ``size=a+b`` draw.  True for the exponential/gamma/constant
    #: families (numpy fills those element by element); False for models
    #: that draw whole auxiliary arrays per call (Rician draws the full
    #: real field before the imaginary one).  The slot-loop engine uses
    #: this to keep per-slot draws grouping-invariant.
    elementwise_draws: bool = True

    @abc.abstractmethod
    def sample(
        self, means: np.ndarray, rng: np.random.Generator, size: "int | None" = None
    ) -> np.ndarray:
        """Draw instantaneous gains with the given means.

        ``means`` is any non-negative array; the result has shape
        ``means.shape`` (``size=None``) or ``(size, *means.shape)``.
        Zero means must yield zero draws.  ``E[draw] = mean`` exactly.
        """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short display name."""

    def __repr__(self) -> str:
        return self.name


class RayleighFading(FadingModel):
    """Exponentially distributed power — the paper's model."""

    def sample(self, means, rng, size=None):
        shape = means.shape if size is None else (int(size), *means.shape)
        return rng.standard_exponential(shape) * means

    @property
    def name(self) -> str:
        return "rayleigh"


class NakagamiFading(FadingModel):
    """Gamma-distributed power: ``Gamma(shape=m, scale=mean/m)``.

    ``m`` is the Nakagami shape parameter (``m >= 0.5`` physically);
    variance is ``mean² / m``, so larger ``m`` means milder fading.
    """

    def __init__(self, m: float):
        self.m = check_positive(m, "m")
        if self.m < 0.5:
            raise ValueError(f"Nakagami m must be >= 0.5, got {m}")

    def sample(self, means, rng, size=None):
        shape = means.shape if size is None else (int(size), *means.shape)
        return rng.gamma(self.m, 1.0 / self.m, size=shape) * means

    @property
    def name(self) -> str:
        return f"nakagami(m={self.m:g})"


class RicianFading(FadingModel):
    """Line-of-sight plus scattered field; ``K`` = LoS/scatter power ratio.

    The complex channel is ``h = sqrt(K/(K+1)) + CN(0, 1/(K+1))`` with
    ``E|h|² = 1``; the power gain is ``mean · |h|²``.  ``K = 0`` recovers
    Rayleigh exactly.
    """

    # sample() draws the whole real field, then the whole imaginary one,
    # so splitting a multi-slot draw changes which variates land where.
    elementwise_draws = False

    def __init__(self, k_factor: float):
        if not np.isfinite(k_factor) or k_factor < 0.0:
            raise ValueError(f"Rician K must be finite and >= 0, got {k_factor}")
        self.k_factor = float(k_factor)

    def sample(self, means, rng, size=None):
        shape = means.shape if size is None else (int(size), *means.shape)
        k = self.k_factor
        sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
        los = np.sqrt(k / (k + 1.0))
        re = los + rng.normal(0.0, sigma, size=shape)
        im = rng.normal(0.0, sigma, size=shape)
        return (re * re + im * im) * means

    @property
    def name(self) -> str:
        return f"rician(K={self.k_factor:g})"


class NoFading(FadingModel):
    """Degenerate model: gains equal their means (the non-fading world)."""

    def sample(self, means, rng, size=None):
        if size is None:
            return means.copy()
        return np.broadcast_to(means, (int(size), *means.shape)).copy()

    @property
    def name(self) -> str:
        return "nonfading"


def draw_unit_multipliers(
    model: FadingModel, n: int, rng, num_slots: int
) -> np.ndarray:
    """``(num_slots, n)`` unit-mean fading multipliers, drawn so the
    result is identical under any grouping of slots into calls.

    Elementwise models draw the whole block in one ``sample`` call;
    models whose multi-slot draws are not grouping-invariant
    (``elementwise_draws = False``) draw one slot at a time — slower,
    but the positional RNG contract of the slot-loop engine holds for
    every fading family.
    """
    gen = as_generator(rng)
    unit = np.ones(n, dtype=np.float64)
    if num_slots <= 0:
        return np.zeros((0, n), dtype=np.float64)
    if model.elementwise_draws:
        return model.sample(unit, gen, size=num_slots)
    return np.concatenate(
        [model.sample(unit, gen, size=1) for _ in range(num_slots)], axis=0
    )


def sinr_from_unit_multipliers(
    instance: SINRInstance,
    patterns: np.ndarray,
    draws: np.ndarray,
    *,
    counterfactual: bool = False,
) -> np.ndarray:
    """Deterministic SINR evaluation of a pattern chunk against given
    unit-mean multipliers ``F_j`` per (slot, sender).

    The evaluation half of the common-random-numbers kernel: callers
    that cache draws (the slot-loop engine's field buffers) re-evaluate
    corrected patterns against the same multipliers through this
    function, and :func:`simulate_sinr_patterns_with_model` is its
    draw-then-evaluate composition.
    """
    chunk = np.asarray(patterns)
    t, n = chunk.shape
    gains_op = instance.gains_operator(keep_diagonal=True)
    own = instance.signal
    act = chunk.astype(np.float64)
    # includes j = i when i is active
    total = gains_op.matmul((act * draws).astype(gains_op.dtype, copy=False))
    signal = own * draws
    denom = total - act * signal + instance.noise
    where = np.ones_like(chunk) if counterfactual else chunk
    sinr = np.zeros((t, n), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(signal, denom, out=sinr, where=where & (denom > 0.0))
    sinr[where & (denom <= 0.0)] = np.inf
    return sinr


def simulate_sinr_patterns_with_model(
    instance: SINRInstance,
    patterns: np.ndarray,
    model: FadingModel,
    rng=None,
    *,
    counterfactual: bool = False,
) -> np.ndarray:
    """One fading SINR slot per transmit pattern, batched, for any model.

    The generic analogue of
    :func:`repro.fading.rayleigh.simulate_sinr_patterns`, with the same
    common-random-numbers scheme: each slot draws one unit-mean fading
    multiplier ``F_j`` per sender and sets ``S(j, i) = S̄(j, i) · F_j``.
    At a fixed receiver the own-signal multiplier never enters its own
    interference sum, so the per-(slot, link) marginal SINR law is
    exactly the model's; only the within-slot dependence across links
    changes, which leaves every per-link frequency estimator unbiased.

    With ``counterfactual=True`` the returned entry for *every* link
    ``i`` (active or not) is the SINR it would see *had it sent* while
    the pattern's other senders transmit — the quantity the capacity
    game's counterfactual rewards are built on.  Otherwise silent links
    read 0, as in the Rayleigh kernel.
    """
    pats = np.asarray(patterns)
    if pats.dtype != np.bool_:
        raise TypeError(f"patterns must be boolean, got dtype {pats.dtype}")
    if pats.ndim != 2 or pats.shape[1] != instance.n:
        raise ValueError(f"patterns must have shape (T, {instance.n}), got {pats.shape}")
    num_slots, n = pats.shape
    out = np.zeros((num_slots, n), dtype=np.float64)
    if num_slots == 0:
        return out
    gen = as_generator(rng)
    # Same CRN kernel as the Rayleigh fast path: the product includes the
    # own-signal term, so the operator keeps the exact diagonal in top-k
    # mode; the default config wraps `instance.gains` byte-identically.
    unit = np.ones(n, dtype=np.float64)
    block = max(1, 12_000_000 // max(1, n))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = model.sample(unit, gen, size=t)  # F_j per (slot, sender)
        out[done : done + t] = sinr_from_unit_multipliers(
            instance, pats[done : done + t], draws, counterfactual=counterfactual
        )
        done += t
    return out


def simulate_slots_with_model(
    instance: SINRInstance,
    active,
    beta: float,
    model: FadingModel,
    rng=None,
    *,
    num_slots: int = 1,
) -> np.ndarray:
    """Success masks over ``num_slots`` independent slots under ``model``.

    The generic analogue of
    :func:`repro.fading.rayleigh.simulate_slots` for arbitrary fading
    families (no Bernoulli fast path — Theorem 1 is Rayleigh-specific).
    """
    check_positive(beta, "beta")
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    mask = _as_active_bool(active, instance.n)
    out = np.zeros((num_slots, instance.n), dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return out
    gen = as_generator(rng)
    sub = instance.subinstance(idx)
    all_active = np.ones(idx.size, dtype=bool)
    # Chunk long runs so the (T, k, k) draw tensor stays ~100 MB.
    block = max(1, 12_000_000 // max(1, idx.size * idx.size))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = model.sample(sub.gains, gen, size=t)
        sinr = _sinr_from_draws(draws, all_active, instance.noise)
        out[done : done + t, idx] = sinr >= beta
        done += t
    return out


def expected_successes_with_model(
    instance: SINRInstance,
    subset,
    beta: float,
    model: FadingModel,
    rng=None,
    *,
    num_slots: int = 2000,
) -> float:
    """Monte-Carlo estimate of the expected number of successes when the
    links of ``subset`` transmit simultaneously under ``model``.

    The generic analogue of
    :func:`repro.transform.blackbox.rayleigh_expected_binary`; used by
    the E14 fading-family study.
    """
    hits = simulate_slots_with_model(
        instance, subset, beta, model, rng, num_slots=num_slots
    )
    return float(hits.sum(axis=1).mean())
