"""Theorem 2 / Algorithm 1 — simulating the Rayleigh optimum in the
non-fading model with ``O(log* n)`` slots.

Given transmission probabilities ``q_1..q_n`` (e.g. an optimal Rayleigh
strategy), Algorithm 1 replaces the single stochastic Rayleigh slot by a
staged sequence of non-fading slots:

    for each stage ``k`` with ``b_k < n``      (``b_0 = 1/4``,
                                                ``b_{k+1} = exp(b_k/2)``)
        repeat 19 times:
            every sender transmits independently w.p. ``q_i / (4 b_k)``

Lemma 3 then shows that for every link and every threshold
``β ≤ S̄(i,i)/(2ν)``, the probability the link succeeds in *some*
simulation slot is at least its single-slot Rayleigh success probability
``Q_i(q, β)``.  Since the number of stages is ``O(log* n)``, the Rayleigh
optimum exceeds the non-fading optimum by at most that factor.

:func:`simulation_schedule` builds the stage plan;
:func:`simulate_rayleigh_optimum` executes it on the non-fading engine
and reports the per-link any-slot success indicators and best achieved
SINRs, which the E6 bench compares against the exact Rayleigh
probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.nonfading import NonFadingChannel
from repro.channel.spec import make_channel
from repro.core.sinr import SINRInstance
from repro.latency.slotloop import iter_slot_blocks, resolve_replay_block
from repro.utils.logstar import b_sequence
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive, check_probability_vector

__all__ = ["SimulationOutcome", "simulation_schedule", "simulate_rayleigh_optimum"]

#: Independent repetitions per stage (constant from the proof of Lemma 3).
PAPER_REPEATS_PER_STAGE = 19

#: Probability damping denominator (the ``4`` in ``q_i / (4 b_k)``).
PAPER_DAMPING = 4.0

#: Stand-in for an infinite SINR (a link with neither interference nor
#: noise) in ``best_sinr``.
_FINITE_MAX = np.finfo(np.float64).max


def simulation_schedule(
    q,
    n: "int | None" = None,
    *,
    repeats: int = PAPER_REPEATS_PER_STAGE,
    damping: float = PAPER_DAMPING,
) -> list[tuple[float, np.ndarray, int]]:
    """The stage plan of Algorithm 1.

    Parameters
    ----------
    q:
        Rayleigh transmission probabilities (length ``n``).
    n:
        Number of links (defaults to ``len(q)``); the stage sequence stops
        once ``b_k >= n``.
    repeats:
        Independent repetitions per stage (paper constant 19).
    damping:
        Probability damping denominator (paper constant 4); exposed for
        the E12 ablation of Algorithm 1's constants.

    Returns
    -------
    list of ``(b_k, stage_probabilities, repeats)`` triples, where
    ``stage_probabilities = q / (damping · b_k)`` clipped into ``[0, 1]``.
    """
    qv = check_probability_vector(q, name="q")
    count = qv.shape[0] if n is None else int(n)
    b, stage_q = _stage_probabilities(qv, count, repeats, damping)
    return [(b_k, row, repeats) for b_k, row in zip(b, stage_q)]


def _stage_probabilities(
    qv: np.ndarray, count: int, repeats: int, damping: float
) -> "tuple[list[float], np.ndarray]":
    """The stages ``b_k < count`` and an ``(S, len(q))`` array whose row
    ``k`` is ``q / (damping · b_k)`` clipped into ``[0, 1]``."""
    if count <= 0:
        raise ValueError(f"n must be positive, got {count}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if damping <= 0:
        raise ValueError(f"damping must be positive, got {damping}")
    b = b_sequence(count)
    return b, np.clip(qv / (damping * np.asarray(b)[:, None]), 0.0, 1.0)


@dataclass(frozen=True)
class SimulationOutcome:
    """Result of executing the Algorithm-1 schedule once.

    Attributes
    ----------
    success:
        Per-link indicator of clearing ``β`` in at least one slot.
    best_sinr:
        Per-link maximum SINR over all slots (``max_t γ_i^t``; 0 if the
        link never transmitted, and identically 0 under channels that do
        not expose sampled SINRs, e.g. the Bernoulli Rayleigh path).
    num_slots:
        Total slots executed (``stages × repeats``).
    num_stages:
        Number of ``b_k`` stages (``Θ(log* n)``).
    per_slot_success_counts:
        Successful transmissions in each slot (diagnostics for E6).
    """

    success: np.ndarray
    best_sinr: np.ndarray
    num_slots: int
    num_stages: int
    per_slot_success_counts: np.ndarray


def simulate_rayleigh_optimum(
    instance: SINRInstance,
    q,
    beta: float,
    rng=None,
    *,
    repeats: int = PAPER_REPEATS_PER_STAGE,
    damping: float = PAPER_DAMPING,
    channel: "str | None" = None,
    slot_block: "int | None" = None,
) -> SimulationOutcome:
    """Execute Algorithm 1, by default on the non-fading engine.

    Each slot draws an independent transmit pattern with the stage's
    damped probabilities and evaluates SINRs; a link "succeeds" when it
    clears ``β`` in at least one slot (the coupling Lemma 3 analyses).

    All slots of a trial are evaluated as one stacked product per trial:
    one ``gen.random((S·r, n))`` call draws every stage's patterns (the
    same variates, and the same generator state afterwards, as ``S``
    per-stage draws) and one ``(S, r, n) @ S̄`` product evaluates them,
    which multiplies each stage's ``(r, n)`` slice exactly as a separate
    per-stage product would.  ``repeats`` and ``damping`` default to the
    paper's constants (19, 4) and exist for the E12 ablation.
    ``channel`` (a spec string) replays the same staged schedule under
    another interference model — e.g. ``"nakagami:m=2"`` asks how
    Algorithm 1's coupling fares when the real channel is not the one
    Lemma 3 assumes; the default ``None`` is the paper's deterministic
    engine, and ``"nonfading"`` takes the same stacked path.  A channel
    that draws randomness while it evaluates a batch runs stage by
    stage, so its draws interleave with the patterns' as they always
    have.

    ``slot_block`` bounds the rows per stage evaluated in one product
    (the engine's replay block, default floored at 512, so a stage of
    the paper's 19 slots is one slice).  Patterns are drawn
    element-sequentially, so every chunking draws the same patterns,
    and ``num_slots`` and ``num_stages`` never depend on it.  The SINR
    product rounds each row in a way that depends on the slice height,
    so ``best_sinr`` can differ in its last bits between chunkings
    (``slot_block=1`` moved its bytes in 168 of 300 trials on E6's
    n = 20, 50, 100 instances, seeds 0–99).  ``success`` and
    ``per_slot_success_counts`` compare SINRs against ``β``, so they
    move only when a SINR lies within rounding of ``β``; they agreed in
    all 300 trials.  Results are byte-stable for a fixed ``slot_block``.
    """
    check_positive(beta, "beta")
    qv = check_probability_vector(q, instance.n)
    gen = as_generator(rng)
    ch = None if channel is None else make_channel(channel, instance, beta)
    n = instance.n
    _b, stage_q = _stage_probabilities(qv, n, repeats, damping)
    block = resolve_replay_block(slot_block)
    if ch is not None and not isinstance(ch, NonFadingChannel):
        return _simulate_stage_by_stage(instance, stage_q, repeats, beta, gen, ch, block)
    stages = stage_q.shape[0]
    patterns = gen.random((stages * repeats, n)).reshape(stages, repeats, n) < stage_q[:, None]
    slices = [
        instance.sinr_batch(patterns[:, lo:hi]) for lo, hi in iter_slot_blocks(repeats, block)
    ]
    sinr = slices[0] if len(slices) == 1 else np.concatenate(slices, axis=1)
    hits = sinr >= beta
    return SimulationOutcome(
        success=hits.any(axis=(0, 1)),
        best_sinr=np.where(np.isinf(sinr), _FINITE_MAX, sinr).max(axis=(0, 1)),
        num_slots=stages * repeats,
        num_stages=stages,
        per_slot_success_counts=hits.sum(axis=2, dtype=np.int64).ravel(),
    )


def _simulate_stage_by_stage(
    instance, stage_q, repeats, beta, gen, ch, block
) -> SimulationOutcome:
    """Algorithm 1 under a channel that draws randomness as it evaluates
    a batch: each stage (in chunks of ``block`` slots) draws its patterns
    and then the channel's randomness, in the order the trial runs."""
    n = instance.n
    success = np.zeros(n, dtype=bool)
    best_sinr = np.zeros(n, dtype=np.float64)
    slot_counts: list[int] = []
    for row in stage_q:
        for lo, hi in iter_slot_blocks(repeats, block):
            patterns = gen.random((hi - lo, n)) < row
            sinr = ch.sinr_batch(patterns, gen)
            if sinr is not None:
                finite_best = np.where(np.isinf(sinr), _FINITE_MAX, sinr)
                best_sinr = np.maximum(best_sinr, finite_best.max(axis=0))
                hits = sinr >= beta
            else:
                hits = ch.realize_batch(patterns, gen)
            success |= hits.any(axis=0)
            slot_counts.extend(hits.sum(axis=1).tolist())
    return SimulationOutcome(
        success=success,
        best_sinr=best_sinr,
        num_slots=len(slot_counts),
        num_stages=stage_q.shape[0],
        per_slot_success_counts=np.asarray(slot_counts, dtype=np.int64),
    )
