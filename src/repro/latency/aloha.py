"""ALOHA-style distributed contention resolution (style of [9], [21]).

Every unserved link transmits independently with a small probability
``q``; successful links fall silent; the rest keep trying.  With ``q``
tuned to the inverse of the contention measure (maximum average
affectance), Kesselheim–Vöcking show the schedule finishes within an
``O(log n)`` factor of optimal latency with high probability.

Service is evaluated through a :class:`~repro.channel.base.Channel`:
under a deterministic channel each protocol step is one physical slot;
under any stochastic channel (Rayleigh, Nakagami, Rician, block fading)
each protocol step is executed ``repeats=4`` times per the Section-4
transformation — for exact Rayleigh the transformed per-step success
dominates the non-fading one whenever ``q ≤ 1/2`` (Lemma 3).

The transmission probability can be a number, ``"auto"`` (tuned from the
peeling approximation of the maximum average affectance — documented
2-approximation), or ``"adaptive"`` (restart-doubling: a standard guess-
and-double wrapper that needs no global knowledge, mirroring the
distributed flavour of [9]).

Execution runs on the shared slot-loop engine
(:func:`repro.latency.slotloop.run_contention`): slots are speculated in
blocks, evaluated against pre-drawn per-slot channel fields, and
invalid speculation is settled in place — the trajectory is identical
for every block size, so ``slot_block`` is purely a throughput knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.base import Channel
from repro.channel.spec import make_channel
from repro.core.affectance import affectance_matrix, max_average_affectance
from repro.core.sinr import SINRInstance
from repro.latency.schedule import Schedule
from repro.latency.slotloop import run_contention
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["AlohaResult", "aloha_latency"]


@dataclass(frozen=True)
class AlohaResult:
    """Outcome of the contention-resolution protocol.

    Attributes
    ----------
    schedule:
        Executed slots (under a stochastic channel each transformed
        protocol step contributes its ``repeats`` physical slots).
    latency:
        Number of physical slots until all links were served.
    protocol_steps:
        Number of protocol steps (== latency for deterministic channels;
        latency / ``repeats`` under the transformation).
    served_at:
        Physical slot at which each link was first served.
    q_used:
        The transmission probability of the final (successful) phase.
    """

    schedule: Schedule
    latency: int
    protocol_steps: int
    served_at: np.ndarray
    q_used: float


def _auto_probability(instance: SINRInstance, beta: float) -> float:
    """Contention-tuned probability ``min(1/2, 1/(2ā))`` with ``ā`` the
    (peeling-approximate) maximum average affectance."""
    a = affectance_matrix(instance, beta, clamped=True)
    abar = max_average_affectance(a)
    if abar <= 1.0:
        return 0.5
    return min(0.5, 1.0 / (2.0 * abar))


def aloha_latency(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    q="auto",
    channel: "Channel | str" = "nonfading",
    repeats: int = 4,
    max_steps_factor: int = 200,
    slot_block: "int | None" = None,
) -> AlohaResult:
    """Run contention resolution until every link has been served.

    Parameters
    ----------
    instance, beta:
        The instance and threshold; all links must be individually viable.
    q:
        Fixed transmission probability in ``(0, 1/2]``, ``"auto"``
        (contention-tuned), or ``"adaptive"`` (halve-and-restart from
        1/2 whenever a phase fails to finish within its step budget —
        the guess-and-double pattern in its latency form).
    channel:
        A :class:`~repro.channel.base.Channel` built on ``instance``, or
        a spec string (``"nonfading"``, the default, ``"rayleigh"``,
        ``"nakagami:m=2"``, ...).  Stochastic channels get the
        ``repeats``-fold Section-4 transformation.
    repeats:
        Executions per protocol step under fading (paper constant 4).
    max_steps_factor:
        Per-phase step budget is ``max_steps_factor · n / q`` protocol
        steps (generous; only pathological probabilities exhaust it).
    slot_block:
        Speculative block size of the slot-loop engine (``None`` → the
        process default, :func:`repro.latency.slotloop.get_default_slot_block`).
        Any value yields identical results; it only trades throughput
        against wasted speculation.

    Returns
    -------
    :class:`AlohaResult`
    """
    check_positive(beta, "beta")
    ch = make_channel(channel, instance, beta)
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if np.any(instance.signal <= beta * instance.noise):
        raise ValueError("some links cannot reach beta against noise alone")
    gen = as_generator(rng)

    if q == "adaptive":
        candidates = [0.5 / 2**k for k in range(12)]
    elif q == "auto":
        candidates = [_auto_probability(instance, beta)]
    else:
        qf = float(q)
        if not 0.0 < qf <= 0.5:
            raise ValueError(f"q must lie in (0, 1/2], got {q}")
        candidates = [qf]

    all_slots: list[np.ndarray] = []
    for q_phase in candidates:
        budget = int(max_steps_factor * instance.n / q_phase)
        executions = 1 if ch.is_deterministic else repeats
        ch.reset()
        result = run_contention(
            ch,
            lambda step, qp=q_phase: qp,
            gen,
            executions=executions,
            max_steps=budget,
            slot_block=slot_block,
        )
        offset = len(all_slots)
        all_slots.extend(result.slots)
        if result.finished:
            schedule = Schedule(slots=tuple(all_slots), n=instance.n)
            return AlohaResult(
                schedule=schedule,
                latency=schedule.length,
                protocol_steps=(
                    schedule.length if ch.is_deterministic else schedule.length // repeats
                ),
                served_at=result.served_at + offset,
                q_used=q_phase,
            )
        # Failed phase still occupied air time; its slots stay in the
        # tally, and the next (halved) probability gets a fresh attempt
        # with every link back in contention.
    raise RuntimeError(
        "contention resolution failed to finish within its step budget at "
        "every candidate probability; the instance is pathological"
    )
