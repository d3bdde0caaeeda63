"""Latency by repeated single-slot capacity maximization.

The first class of latency algorithms Section 4 transfers: run a
capacity-maximization algorithm on the unserved links, schedule the
returned set for one slot, remove whoever was served, recurse.  With a
``c``-approximate capacity algorithm this is an ``O(c · log n)``
approximation to the minimum schedule length [8].

Service is evaluated through a :class:`~repro.channel.base.Channel` on
the *full* instance with global transmit masks (silent links contribute
no interference, so this matches per-subinstance evaluation exactly):

* deterministic channels — the schedule and its length are
  deterministic; this is the baseline the paper compares against.
* stochastic channels (Rayleigh, Nakagami, Rician, block) — each
  scheduled slot is realised under fading, so a link may need several
  slots; exactly the "repeated application" transfer of Section 4
  (capacity per slot drops by at most the constant of Lemma 2, hence
  expected latency grows by a constant factor).

Every round plans on the parent instance.  The default capacity
algorithm is the signal-order greedy of
:func:`~repro.capacity.greedy.greedy_planner`: the affectance matrix and
the stable signal order are built once per run, and each round fills an
empty :class:`~repro.capacity.admission.Admission` with the unserved
links in that order.  That is the set ``greedy_capacity`` picks on the
unserved links' subinstance, without the subinstance's gains copy,
validation, ``O(n²)`` affectance matrix and argsort every round.  A
custom ``algorithm`` plans the same way: it receives the parent
instance, ``β`` and the unserved links, and returns global indices.

Channel randomness flows through the slot-loop engine's per-slot field
buffer (:class:`~repro.latency.slotloop.SlotFieldBuffer`): fields are
pre-drawn positionally in blocks — they never depend on the transmit
masks — and each slot's data-dependent mask is evaluated against its
own row, so results are identical for every ``slot_block``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.capacity.greedy import greedy_planner
from repro.channel.base import Channel
from repro.channel.spec import make_channel
from repro.core.sinr import SINRInstance
from repro.latency.schedule import Schedule
from repro.latency.slotloop import SlotFieldBuffer, run_fixed_pattern
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["RepeatedMaxResult", "repeated_max_latency"]


@dataclass(frozen=True)
class RepeatedMaxResult:
    """Outcome of the repeated-maximization scheduler.

    Attributes
    ----------
    schedule:
        The slots actually executed, in global link indices.
    latency:
        Number of slots until every link was served (== ``schedule.length``).
    served_at:
        Per-link slot index at which the link was first served.
    """

    schedule: Schedule
    latency: int
    served_at: np.ndarray


def repeated_max_latency(
    instance: SINRInstance,
    beta: float,
    *,
    channel: "Channel | str" = "nonfading",
    algorithm: "Callable[[SINRInstance, float, np.ndarray], np.ndarray] | None" = None,
    rng=None,
    max_slots: "int | None" = None,
    slot_block: "int | None" = None,
) -> RepeatedMaxResult:
    """Serve every link via repeated single-slot maximization.

    Parameters
    ----------
    instance, beta:
        The instance and SINR threshold.  Every link must be individually
        viable (``S̄(i,i) > βν``), otherwise no finite schedule exists and
        a ``ValueError`` is raised.
    channel:
        A :class:`~repro.channel.base.Channel` built on ``instance``, or
        a spec string (``"nonfading"``, the default, ``"rayleigh"``,
        ``"nakagami:m=2"``, ...).
    algorithm:
        Single-slot capacity algorithm ``(instance, beta, candidates) ->
        indices``: given the parent instance and the ascending global
        indices of the unserved links, return the global indices to
        schedule next.  Defaults to the affectance greedy (margin 1) on
        the candidates, planned on the parent instance.
    rng:
        Fading randomness (stochastic channels only).
    max_slots:
        Safety cap; defaults to ``50 n`` for stochastic channels, ``2 n``
        for deterministic ones (both far above anything the algorithms
        need).
    slot_block:
        Speculative block cap of the fixed-pattern engine path
        (``None`` → ``DEFAULT_SLOT_BLOCK``); results are identical for
        every value.  Between two services the unserved set — and hence
        the (deterministic) capacity algorithm's choice — cannot change,
        so the chosen set is re-planned only after a service and the
        repeated slots in between are evaluated in blocks.

    Returns
    -------
    :class:`RepeatedMaxResult`
    """
    check_positive(beta, "beta")
    ch = make_channel(channel, instance, beta)
    if np.any(instance.signal <= beta * instance.noise):
        raise ValueError(
            "some links cannot reach beta against noise alone; "
            "no finite non-fading schedule exists"
        )
    if algorithm is None:
        plan = greedy_planner(instance, beta)

        def algorithm(_instance, _beta, candidates):
            return plan(candidates)

    gen = as_generator(rng)
    n = instance.n
    cap = max_slots if max_slots is not None else (2 * n if ch.is_deterministic else 50 * n)

    remaining = np.arange(n)
    served_at = np.full(n, -1, dtype=np.int64)
    slots: list[np.ndarray] = []
    fields = SlotFieldBuffer(ch, gen)
    while remaining.size:
        if len(slots) >= cap:
            raise RuntimeError(
                f"scheduler exceeded {cap} slots with {remaining.size} links left; "
                "instance is pathological or the capacity algorithm returned empty sets"
            )
        chosen = np.asarray(algorithm(instance, beta, remaining), dtype=np.intp)
        if chosen.size == 0:
            # The capacity algorithm refused everything; fall back to the
            # single individually-viable link with the strongest signal so
            # progress is guaranteed.
            chosen = remaining[[int(np.argmax(instance.signal[remaining]))]]
        mask = np.zeros(n, dtype=bool)
        mask[chosen] = True
        if ch.is_deterministic:
            # One slot decides everything: the outcome is the same every
            # slot, so speculation buys nothing and an infeasible set
            # must be caught immediately.
            ok = fields.apply(len(slots), mask[None])[0] & mask
            used = 1
        else:
            used, ok = run_fixed_pattern(
                fields, len(slots), mask, max_rows=cap - len(slots), slot_block=slot_block
            )
        sorted_chosen = np.sort(chosen)
        slots.extend([sorted_chosen] * used)
        fields.release(len(slots))
        served = np.flatnonzero(ok)
        served_at[served] = len(slots) - 1
        if ch.is_deterministic and served.size == 0:
            # A feasible-set algorithm always serves its whole set; an
            # empty service here means the supplied algorithm returned an
            # infeasible set — schedule its strongest link alone next.
            strongest = chosen[int(np.argmax(instance.signal[chosen]))]
            slots.append(np.array([strongest], dtype=np.intp))
            served_at[strongest] = len(slots) - 1
            served = np.array([strongest])
        served_mask = np.zeros(n, dtype=bool)
        served_mask[served] = True
        remaining = remaining[~served_mask[remaining]]
    schedule = Schedule(slots=tuple(slots), n=n)
    return RepeatedMaxResult(schedule=schedule, latency=schedule.length, served_at=served_at)
