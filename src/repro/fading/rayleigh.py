"""Slot-level simulation of the Rayleigh-fading channel.

Two equivalent simulation paths are provided:

* **Explicit sampling** (:func:`simulate_slot`, :func:`simulate_slots`,
  :func:`simulate_sinr`): draw the full matrix of exponential signal
  strengths ``S(j,i) ~ Exp(mean S̄(j,i))`` and threshold the resulting
  SINRs.  This is the physics-faithful path and the only one that yields
  actual SINR *values* (needed for Shannon-type utilities).

* **Bernoulli fast path** (:func:`simulate_slots_bernoulli`): given the
  transmit pattern, the success events of distinct receivers depend on
  disjoint columns of the independent draw matrix, so they are mutually
  independent with the exact per-link probabilities of Theorem 1.
  Sampling independent Bernoullis is therefore *distribution-identical*
  to explicit sampling, at a fraction of the cost.  (The equivalence is
  verified by a statistical test in ``tests/fading``.)

All functions draw from a caller-supplied generator; nothing uses global
random state.
"""

from __future__ import annotations

import numpy as np

from repro.core.sinr import SINRInstance
from repro.fading.success import success_probability_conditional
from repro.obs import metrics as _metrics
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = [
    "sample_fading_gains",
    "simulate_sinr",
    "simulate_sinr_patterns",
    "simulate_slot",
    "simulate_slots",
    "simulate_slots_bernoulli",
]

#: Cap on the elements of one vectorized sampling block; bigger requests are
#: chunked so memory stays bounded (~120 MB of float64 per block).
_BLOCK_ELEMENTS = 16_000_000


def sample_fading_gains(instance: SINRInstance, rng=None, size: "int | None" = None) -> np.ndarray:
    """Draw instantaneous signal strengths ``S(j,i) ~ Exp(mean = S̄(j,i))``.

    Parameters
    ----------
    instance:
        Mean signals; zero means yield identically-zero draws.
    rng:
        Seed or generator.
    size:
        ``None`` for one slot (shape ``(n, n)``) or a slot count ``T``
        (shape ``(T, n, n)``).

    Notes
    -----
    Draws are independent across ordered pairs and across slots, matching
    the model assumption in Section 2.
    """
    gen = as_generator(rng)
    shape = instance.gains.shape if size is None else (int(size), *instance.gains.shape)
    # Exponential with per-entry scale: scale · Exp(1).  A zero scale gives
    # a zero draw, which is the correct degenerate channel.
    return gen.standard_exponential(shape) * instance.gains


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
    out = np.zeros(denom.shape, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(diag, denom, out=out, where=act & (denom > 0.0))
    out[np.broadcast_to(act, denom.shape) & (denom <= 0.0)] = np.inf
    return out


def _as_mask(active, n: int) -> np.ndarray:
    arr = np.asarray(active)
    if arr.dtype != np.bool_:
        mask = np.zeros(n, dtype=bool)
        mask[arr] = True
        return mask
    if arr.shape != (n,):
        raise ValueError(f"active mask must have shape ({n},), got {arr.shape}")
    return arr


def simulate_sinr(
    instance: SINRInstance, active, rng=None, *, num_slots: int = 1
) -> np.ndarray:
    """Sample the fading SINR ``γ_i^R`` of every link over ``num_slots`` slots.

    Returns shape ``(num_slots, n)``; silent links read 0.  Only the
    sub-matrix of active senders/receivers is drawn, so cost scales with
    the active set, and long runs are chunked to bound memory.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    n = instance.n
    mask = _as_mask(active, n)
    idx = np.flatnonzero(mask)
    out = np.zeros((num_slots, n), dtype=np.float64)
    if idx.size == 0:
        return out
    gen = as_generator(rng)
    sub = instance.subinstance(idx)
    all_active = np.ones(idx.size, dtype=bool)
    block = max(1, _BLOCK_ELEMENTS // (idx.size * idx.size))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = sample_fading_gains(sub, gen, size=t)
        out[done : done + t, idx] = _sinr_from_draws(draws, all_active, instance.noise)
        done += t
    return out


def simulate_sinr_patterns(
    instance: SINRInstance, patterns: np.ndarray, rng=None
) -> np.ndarray:
    """Sample one fading SINR slot per transmit pattern, fully batched.

    ``patterns`` is a boolean ``(T, n)`` array — one independent transmit
    pattern per slot (unlike :func:`simulate_sinr`, which holds a single
    pattern fixed across slots).  This is the Monte-Carlo hot path: there
    is no per-pattern Python loop, and the whole batch reduces to one
    ``(T, n)`` exponential draw plus one ``(T, n) @ (n, n)`` product per
    memory-bounded chunk.

    Sampling scheme (common random numbers across receivers): each slot
    draws **one** ``Exp(1)`` variate ``E_j`` per sender and sets
    ``S(j, i) = S̄(j, i) · E_j`` for every receiver ``i``.  At any fixed
    receiver, its own signal uses ``E_i`` — which never appears in its own
    interference sum — and the interference terms use ``{E_j, j ≠ i}``,
    mutually independent of it.  The per-(slot, link) joint law of
    (signal, interference), and hence the marginal SINR distribution of
    every link, is therefore *exactly* the model's; what changes is only
    the within-slot dependence **across** links (they share sender
    draws).  Per-link success frequencies and expected utilities — the
    quantities every Monte-Carlo estimator built on this kernel returns —
    are unbiased with exactly the per-link variance of fully independent
    draws, by linearity of expectation.  Consumers that need the joint
    within-slot law across links should use :func:`simulate_sinr` or
    :func:`sample_fading_gains` instead.

    Returns shape ``(T, n)``; links silent in a pattern read 0 in its row.
    """
    pats = np.asarray(patterns)
    if pats.dtype != np.bool_:
        raise TypeError(f"patterns must be boolean, got dtype {pats.dtype}")
    if pats.ndim != 2 or pats.shape[1] != instance.n:
        raise ValueError(
            f"patterns must have shape (T, {instance.n}), got {pats.shape}"
        )
    num_slots, n = pats.shape
    out = np.zeros((num_slots, n), dtype=np.float64)
    if num_slots == 0:
        return out
    _metrics.add("mc.draw_slots", num_slots)
    gen = as_generator(rng)
    # keep_diagonal=True: the product below includes the own-signal term
    # (j = i) and subtracts it back out, so the top-k form must carry the
    # exact diagonal.  Under the default config this wraps `instance.gains`
    # itself and the product is byte-identical to `x @ gains`.
    gains_op = instance.gains_operator(keep_diagonal=True)
    own = instance.signal  # S̄(i,i), shape (n,)
    block = max(1, _BLOCK_ELEMENTS // max(1, n))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        chunk = pats[done : done + t]
        act = chunk.astype(np.float64)
        draws = gen.standard_exponential((t, n))  # E_j per (slot, sender)
        # total[t, i] = Σ_j act_j · S̄(j, i) · E_j  — includes j = i.
        total = gains_op.matmul((act * draws).astype(gains_op.dtype, copy=False))
        signal = own * draws
        denom = total - act * signal + instance.noise
        sinr = np.zeros((t, n), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(signal, denom, out=sinr, where=chunk & (denom > 0.0))
        sinr[chunk & (denom <= 0.0)] = np.inf
        out[done : done + t] = sinr
        done += t
    return out


def simulate_slot(instance: SINRInstance, active, beta: float, rng=None) -> np.ndarray:
    """Simulate one Rayleigh slot by explicit sampling.

    Returns the boolean success mask: link ``i`` transmits (per ``active``)
    and its drawn SINR reaches ``β``.
    """
    check_positive(beta, "beta")
    return simulate_sinr(instance, active, rng, num_slots=1)[0] >= beta


def simulate_slots(
    instance: SINRInstance, active, beta: float, rng=None, *, num_slots: int = 1
) -> np.ndarray:
    """Explicitly-sampled success masks over many slots, shape ``(T, n)``.

    Fading is independent across slots (the model's assumption); the
    transmit pattern is held fixed.
    """
    check_positive(beta, "beta")
    return simulate_sinr(instance, active, rng, num_slots=num_slots) >= beta


def simulate_slots_bernoulli(
    instance: SINRInstance, active, beta, rng=None, *, num_slots: int = 1
) -> np.ndarray:
    """Distribution-identical fast path: sample per-link success as
    independent Bernoullis with the exact Theorem-1 probabilities.

    Valid because, conditioned on the transmit pattern, receiver ``i``'s
    success depends only on column ``i`` of the independent draw matrix —
    columns are disjoint, hence successes are mutually independent.

    Accepts scalar or per-link ``beta``.  Returns ``(num_slots, n)``.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    n = instance.n
    mask = _as_mask(active, n)
    gen = as_generator(rng)
    q = mask.astype(np.float64)
    p = np.where(mask, success_probability_conditional(instance, q, beta), 0.0)
    return gen.random((num_slots, n)) < p
