"""The decay protocol — probability-sweeping contention resolution.

A second fully distributed latency protocol, in the spirit of the
classical DECAY broadcast algorithm and the probability classes inside
Kesselheim–Vöcking [9]: time is divided into *sweeps* of
``ceil(log2 n) + 1`` slots, and in slot ``j`` of a sweep every unserved
link transmits with probability ``2^{-j}``.  Whatever the current
contention ``c`` is, some slot of each sweep uses a probability within a
factor 2 of ``1/c``, which is enough for a constant per-sweep success
rate among the links dominating the contention — no link needs to know
``c`` or the affectance structure, unlike the tuned single-probability
protocol in :mod:`repro.latency.aloha`.

Service is evaluated through a :class:`~repro.channel.base.Channel`;
under any stochastic channel each slot is executed ``repeats``-fold per
the Section-4 transformation.  Execution runs on the shared slot-loop
engine (:func:`repro.latency.slotloop.run_contention`) with the sweep
expressed as a per-step probability function — results are identical
for every speculative block size.
"""

from __future__ import annotations

import math

import numpy as np

from repro.channel.base import Channel
from repro.channel.spec import make_channel
from repro.core.sinr import SINRInstance
from repro.latency.aloha import AlohaResult
from repro.latency.schedule import Schedule
from repro.latency.slotloop import run_contention
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["decay_latency"]


def decay_latency(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    channel: "Channel | str" = "nonfading",
    repeats: int = 4,
    max_sweeps: "int | None" = None,
    slot_block: "int | None" = None,
) -> AlohaResult:
    """Serve every link with the probability-sweeping decay protocol.

    Parameters
    ----------
    instance, beta:
        The instance and threshold; every link must be individually
        viable.
    rng:
        Protocol (and, under fading, channel) randomness.
    channel:
        A :class:`~repro.channel.base.Channel` built on ``instance``, or
        a spec string (default ``"nonfading"``).
    repeats:
        Physical executions per protocol slot under stochastic channels.
    max_sweeps:
        Safety cap (default ``50 · n``).
    slot_block:
        Speculative block size of the slot-loop engine (``None`` →
        ``DEFAULT_SLOT_BLOCK``); results are identical for every value.

    Returns
    -------
    :class:`repro.latency.aloha.AlohaResult` — ``q_used`` reports the
    smallest probability of the sweep.
    """
    check_positive(beta, "beta")
    ch = make_channel(channel, instance, beta)
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if np.any(instance.signal <= beta * instance.noise):
        raise ValueError("some links cannot reach beta against noise alone")
    gen = as_generator(rng)
    n = instance.n
    sweep_length = max(1, int(math.ceil(math.log2(max(n, 2)))) + 1)
    cap = max_sweeps if max_sweeps is not None else 50 * n
    executions = 1 if ch.is_deterministic else repeats

    result = run_contention(
        ch,
        lambda step, sl=sweep_length: 2.0 ** (-((step % sl) + 1)),
        gen,
        executions=executions,
        max_steps=cap * sweep_length,
        slot_block=slot_block,
    )
    if not result.finished:
        raise RuntimeError(f"decay protocol exceeded {cap} sweeps")
    schedule = Schedule(slots=tuple(result.slots), n=n)
    return AlohaResult(
        schedule=schedule,
        latency=schedule.length,
        protocol_steps=len(result.slots) // executions,
        served_at=result.served_at,
        q_used=2.0**(-sweep_length),
    )
