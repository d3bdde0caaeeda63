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
    if count <= 0:
        raise ValueError(f"n must be positive, got {count}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if damping <= 0:
        raise ValueError(f"damping must be positive, got {damping}")
    plan: list[tuple[float, np.ndarray, int]] = []
    for b_k in b_sequence(count):
        stage_q = np.clip(qv / (damping * b_k), 0.0, 1.0)
        plan.append((b_k, stage_q, repeats))
    return plan


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

    All slots of a stage are evaluated as one batched SINR product.
    ``repeats`` and ``damping`` default to the paper's constants (19, 4)
    and exist for the E12 ablation.  ``channel`` (a spec string) replays
    the same staged schedule under another interference model — e.g.
    ``"nakagami:m=2"`` asks how Algorithm 1's coupling fares when the
    real channel is not the one Lemma 3 assumes; the default ``None``
    is the paper's deterministic engine.

    ``slot_block`` bounds the rows evaluated per vectorized pass (the
    engine's replay block, default floored at 512).  Patterns are drawn
    element-sequentially, so every chunking draws the same patterns, but
    the batched SINR product rounds each row in a way that depends on
    the block height: ``best_sinr`` can differ in its last bits between
    chunkings (``slot_block=1`` moved its bytes in 168 of 300 trials on
    E6's n = 20, 50, 100 instances, seeds 0–99).  ``success`` and
    ``per_slot_success_counts`` compare SINRs against ``β``, so they
    move only when a SINR lies within rounding of ``β``; they agreed in
    all 300 trials.  Results are byte-stable for a fixed ``slot_block``.
    """
    check_positive(beta, "beta")
    qv = check_probability_vector(q, instance.n)
    gen = as_generator(rng)
    ch = None if channel is None else make_channel(channel, instance, beta)
    plan = simulation_schedule(qv, instance.n, repeats=repeats, damping=damping)
    n = instance.n
    success = np.zeros(n, dtype=bool)
    best_sinr = np.zeros(n, dtype=np.float64)
    slot_counts: list[int] = []
    block = resolve_replay_block(slot_block)
    for _b_k, stage_q, reps in plan:
        for lo, hi in iter_slot_blocks(reps, block):
            patterns = gen.random((hi - lo, n)) < stage_q
            sinr = instance.sinr_batch(patterns) if ch is None else ch.sinr_batch(patterns, gen)
            if sinr is not None:
                finite_best = np.where(np.isinf(sinr), np.finfo(np.float64).max, sinr)
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
        num_stages=len(plan),
        per_slot_success_counts=np.asarray(slot_counts, dtype=np.int64),
    )
