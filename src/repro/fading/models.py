"""Fading families and the Monte-Carlo samplers that draw from them.

Section 2 draws every received power as ``S(j, i) ~ Exp(mean = S̄(j, i))``;
Section 8 hopes the techniques carry to "interference models capturing
further realistic properties".  Every family here is normalised so the
*mean* received power equals the non-fading value ``S̄(j, i)``:

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

One sampler per sampling scheme takes the family as ``model`` (Rayleigh
by default): :func:`simulate_sinr` / :func:`simulate_slots` draw the
full gain matrix of a fixed pattern every slot (the exact joint law
across links), and :func:`simulate_sinr_patterns` draws one multiplier
per sender per slot for a batch of patterns (exact per-link marginals;
the Monte-Carlo hot path).  Only Rayleigh also has Theorem 1's closed
form (:mod:`repro.fading.success`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.sinr import SINRInstance, _as_active_bool
from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = [
    "FadingModel",
    "RayleighFading",
    "NakagamiFading",
    "RicianFading",
    "NoFading",
    "draw_unit_multipliers",
    "simulate_sinr",
    "simulate_sinr_patterns",
    "simulate_slots",
    "sinr_from_unit_multipliers",
    "expected_successes_with_model",
]

#: Float64 elements per sampling chunk (~100 MB): ``// n`` patterns per
#: per-sender chunk, ``// k²`` slots per full-matrix chunk (k active
#: links).  Chunk boundaries can move bytes (the product rounds by chunk
#: height; Rician draws whole fields), so this depends on sizes only.
_BLOCK_ELEMENTS = 12_000_000


class FadingModel(abc.ABC):
    """Distribution of instantaneous power gains around their means."""

    #: Whether :meth:`unit_gains` consumes randomness element-sequentially
    #: — i.e. drawing ``a`` then ``b`` rows yields the same rows as one
    #: ``a+b``-row draw.  True for the exponential/gamma/constant
    #: families (numpy fills those element by element); False for models
    #: that draw whole auxiliary arrays per call (Rician draws the full
    #: real field before the imaginary one).  The slot-loop engine uses
    #: this to keep per-slot draws grouping-invariant.
    elementwise_draws: bool = True

    @abc.abstractmethod
    def unit_gains(self, rng: np.random.Generator, shape: "tuple[int, ...]") -> np.ndarray:
        """Draw independent unit-mean power gains of the given shape."""

    def sample(
        self, means: np.ndarray, rng: np.random.Generator, size: "int | None" = None
    ) -> np.ndarray:
        """Draw instantaneous gains with the given means.

        ``means`` is any non-negative array; the result has shape
        ``means.shape`` (``size=None``) or ``(size, *means.shape)``.
        Zero means yield zero draws, and ``E[draw] = mean`` exactly.
        """
        shape = means.shape if size is None else (int(size), *means.shape)
        return self.unit_gains(rng, shape) * means

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short display name."""

    def __repr__(self) -> str:
        return self.name


class RayleighFading(FadingModel):
    """Exponentially distributed power — the paper's model."""

    def unit_gains(self, rng, shape):
        return rng.standard_exponential(shape)

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

    def unit_gains(self, rng, shape):
        return rng.gamma(self.m, 1.0 / self.m, size=shape)

    @property
    def name(self) -> str:
        return f"nakagami(m={self.m:g})"


class RicianFading(FadingModel):
    """Line-of-sight plus scattered field; ``K`` = LoS/scatter power ratio.

    The complex channel is ``h = sqrt(K/(K+1)) + CN(0, 1/(K+1))`` with
    ``E|h|² = 1``; the power gain is ``mean · |h|²``.  ``K = 0`` recovers
    Rayleigh exactly.
    """

    # unit_gains() draws the whole real field, then the whole imaginary
    # one, so splitting a multi-slot draw changes which variates land where.
    elementwise_draws = False

    def __init__(self, k_factor: float):
        if not np.isfinite(k_factor) or k_factor < 0.0:
            raise ValueError(f"Rician K must be finite and >= 0, got {k_factor}")
        self.k_factor = float(k_factor)

    def unit_gains(self, rng, shape):
        k = self.k_factor
        sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
        los = np.sqrt(k / (k + 1.0))
        re = los + rng.normal(0.0, sigma, size=shape)
        im = rng.normal(0.0, sigma, size=shape)
        return re * re + im * im

    @property
    def name(self) -> str:
        return f"rician(K={self.k_factor:g})"


class NoFading(FadingModel):
    """Degenerate model: gains equal their means (the non-fading world)."""

    def unit_gains(self, rng, shape):
        return np.ones(shape, dtype=np.float64)

    @property
    def name(self) -> str:
        return "nonfading"


_RAYLEIGH = RayleighFading()


def draw_unit_multipliers(
    model: FadingModel, n: int, rng, num_slots: int
) -> np.ndarray:
    """``(num_slots, n)`` unit-mean fading multipliers, drawn so the
    result is identical under any grouping of slots into calls.

    Elementwise models draw the whole block in one call; models whose
    multi-slot draws are not grouping-invariant
    (``elementwise_draws = False``) draw one slot at a time — slower,
    but the positional RNG contract of the slot-loop engine holds for
    every fading family.
    """
    gen = as_generator(rng)
    if num_slots <= 0:
        return np.zeros((0, n), dtype=np.float64)
    if model.elementwise_draws:
        return model.unit_gains(gen, (num_slots, n))
    return np.concatenate(
        [model.unit_gains(gen, (1, n)) for _ in range(num_slots)], axis=0
    )


def _sinr_from_draws(draws: np.ndarray, active: np.ndarray, noise: float) -> np.ndarray:
    """SINR per link from drawn gain matrices.

    ``draws`` is ``(..., n, n)`` with ``draws[..., j, i]`` the strength of
    sender ``j`` at receiver ``i``; ``active`` is a boolean mask, either a
    single ``(n,)`` pattern shared by every draw or pattern-varying with
    any shape broadcastable against the draws' leading axes (e.g.
    ``(T, n)`` masks for ``(T, n, n)`` draws).
    """
    act = np.asarray(active, dtype=bool)
    diag = np.diagonal(draws, axis1=-2, axis2=-1)  # own signals, (..., n)
    total = np.einsum("...ji,...j->...i", draws, act.astype(np.float64))
    denom = total - act * diag + noise
    return _sinr_quotient(diag, denom, act, np.empty(denom.shape, dtype=np.float64))


def _sinr_quotient(
    signal: np.ndarray, denom: np.ndarray, where: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``signal / denom`` into ``out`` on the links of ``where`` whose
    denominator is positive, ∞ on those whose is not, and 0 elsewhere.

    Signals and the interference-plus-noise off ``where`` are never
    negative, so the plain quotient times the 0/1 mask is that value
    everywhere but where 0·∞ made a NaN, which is reset.  A masked
    divide (``where=``) gives the same bytes but calls its loop once per
    run of the mask: several times slower on random transmit patterns.
    """
    ok = where & (denom > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(signal, denom, out=out)
        np.multiply(out, ok, out=out)
    out[np.isnan(out) & ~ok] = 0.0
    out[where & (denom <= 0.0)] = np.inf
    return out


def simulate_sinr(
    instance: SINRInstance,
    active,
    rng=None,
    *,
    num_slots: int = 1,
    model: FadingModel = _RAYLEIGH,
) -> np.ndarray:
    """Sample the fading SINR of every link over ``num_slots`` slots.

    The pattern ``active`` (a boolean mask or an index list, read by
    :func:`repro.core.sinr._as_active_bool`) is held fixed, and every
    slot draws the full gain matrix of the active links from ``model``
    — the exact joint law across links, independent across slots.
    Returns shape ``(num_slots, n)``; silent links read 0.  Cost scales
    with the active set, and long runs are chunked to bound memory.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    mask = _as_active_bool(active, instance.n)
    out = np.zeros((num_slots, instance.n), dtype=np.float64)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return out
    gen = as_generator(rng)
    sub = instance.subinstance(idx)
    all_active = np.ones(idx.size, dtype=bool)
    block = max(1, _BLOCK_ELEMENTS // (idx.size * idx.size))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = model.sample(sub.gains, gen, size=t)
        out[done : done + t, idx] = _sinr_from_draws(draws, all_active, instance.noise)
        done += t
    return out


def simulate_slots(
    instance: SINRInstance,
    active,
    beta: float,
    rng=None,
    *,
    num_slots: int = 1,
    model: FadingModel = _RAYLEIGH,
) -> np.ndarray:
    """Success masks ``(num_slots, n)`` of a fixed pattern: link ``i``
    transmits and its SINR drawn by :func:`simulate_sinr` reaches ``β``.

    For Rayleigh, :meth:`repro.channel.RayleighChannel.realize_batch`
    samples the same law from Theorem 1's probabilities instead.
    """
    check_positive(beta, "beta")
    return simulate_sinr(instance, active, rng, num_slots=num_slots, model=model) >= beta


def sinr_from_unit_multipliers(
    instance: SINRInstance,
    patterns: np.ndarray,
    draws: np.ndarray,
    *,
    counterfactual: bool = False,
) -> np.ndarray:
    """Deterministic SINR evaluation of a pattern chunk against given
    unit-mean multipliers ``F_j`` per (slot, sender).

    The evaluation half of the per-sender sampler: callers that cache
    draws (the slot-loop engine's field buffers) re-evaluate corrected
    patterns against the same multipliers through this function, and
    :func:`simulate_sinr_patterns` is its draw-then-evaluate composition.
    """
    chunk = np.asarray(patterns)
    # The product includes the own-signal term and subtracts it back out,
    # so the top-k form must carry the exact diagonal; the default config
    # wraps `instance.gains` itself, byte-identical to `x @ gains`.
    gains_op = instance.gains_operator(keep_diagonal=True)
    # The elementwise half runs in place on one work array.
    work = chunk.astype(np.float64)
    work *= draws  # act·F, the product's operand
    # includes j = i when i is active
    total = gains_op.matmul(work.astype(gains_op.dtype, copy=False))
    signal = instance.signal * draws
    work *= instance.signal  # own·(act·F) is act·(own·F): act is 0 or 1
    np.subtract(total, work, out=work)  # a float32 or top-k total promotes
    work += instance.noise
    where = np.ones_like(chunk) if counterfactual else chunk
    return _sinr_quotient(signal, work, where, signal)


def simulate_sinr_patterns(
    instance: SINRInstance,
    patterns: np.ndarray,
    rng=None,
    *,
    model: FadingModel = _RAYLEIGH,
    counterfactual: bool = False,
) -> np.ndarray:
    """Sample one fading SINR slot per transmit pattern, fully batched.

    ``patterns`` is a boolean ``(T, n)`` array — one independent transmit
    pattern per slot (unlike :func:`simulate_sinr`, which holds a single
    pattern fixed across slots).  This is the Monte-Carlo hot path: there
    is no per-pattern Python loop, and the whole batch reduces to one
    ``(T, n)`` multiplier draw plus one ``(T, n) @ (n, n)`` product per
    memory-bounded chunk.

    Sampling scheme (common random numbers across receivers): each slot
    draws **one** unit-mean multiplier ``F_j`` per sender from ``model``
    and sets ``S(j, i) = S̄(j, i) · F_j`` for every receiver ``i``.  At
    any fixed receiver, its own signal uses ``F_i`` — which never appears
    in its own interference sum — and the interference terms use
    ``{F_j, j ≠ i}``, mutually independent of it.  The per-(slot, link)
    joint law of (signal, interference), and hence the marginal SINR
    distribution of every link, is therefore *exactly* the model's; what
    changes is only the within-slot dependence **across** links (they
    share sender draws).  Per-link success frequencies and expected
    utilities — the quantities every Monte-Carlo estimator built on this
    kernel returns — are unbiased with exactly the per-link variance of
    fully independent draws, by linearity of expectation.  Consumers that
    need the joint within-slot law across links should use
    :func:`simulate_sinr` instead.

    With ``counterfactual=True`` the entry for *every* link ``i`` (active
    or not) is the SINR it would see *had it sent* while the pattern's
    other senders transmit — the quantity the capacity game's
    counterfactual rewards are built on.  Otherwise links silent in a
    pattern read 0 in its row.  Returns shape ``(T, n)``.
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
    _metrics.add("mc.draw_slots", num_slots)
    gen = as_generator(rng)
    block = max(1, _BLOCK_ELEMENTS // max(1, n))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = model.unit_gains(gen, (t, n))  # F_j per (slot, sender)
        out[done : done + t] = sinr_from_unit_multipliers(
            instance, pats[done : done + t], draws, counterfactual=counterfactual
        )
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
    hits = simulate_slots(instance, subset, beta, rng, num_slots=num_slots, model=model)
    return float(hits.sum(axis=1).mean())
