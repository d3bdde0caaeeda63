"""Multi-hop scheduling: requests relayed over intermediate nodes.

Section 4 notes the single-hop transformations generalize directly to
multi-hop scheduling [6], [9], [10]: a multi-hop schedule is a
concatenation of single-hop schedules, and transforming each one keeps
the constant factors.

A :class:`MultiHopRequest` is a path of nodes; each consecutive pair is
one hop (a single-hop link).  :func:`multihop_latency` schedules all
requests hop-by-hop with a *moving-frontier* strategy: in every round the
head hop of every unfinished request enters a single-hop latency problem,
solved by any of the single-hop schedulers; finished hops advance their
request's frontier.  The returned latency is the makespan (slots until
every request's last hop is served).

Between two frontier advances the instance — and hence the chosen
transmit set — cannot change, so those repeated slots form a *frontier
epoch* evaluated in blocks on the slot-loop engine's fixed-pattern path
(:func:`repro.latency.slotloop.run_fixed_pattern`): per-slot channel
fields are pre-drawn positionally and the epoch is truncated at the
first slot serving any hop.  Results are identical for every
``slot_block``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.capacity.greedy import greedy_capacity
from repro.channel.spec import make_channel
from repro.core.network import Network
from repro.core.power import PowerAssignment, UniformPower
from repro.core.sinr import SINRInstance
from repro.latency.slotloop import SlotFieldBuffer, run_fixed_pattern
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = [
    "MultiHopRequest",
    "MultiHopResult",
    "multihop_latency",
    "multihop_lower_bound",
]


@dataclass(frozen=True)
class MultiHopRequest:
    """A communication request routed along a node path.

    Attributes
    ----------
    path:
        Array of node coordinates, shape ``(k+1, dim)`` for ``k`` hops;
        hop ``h`` is the link ``path[h] -> path[h+1]``.
    """

    path: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.path, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError("a request path needs at least two nodes (one hop)")
        object.__setattr__(self, "path", arr)

    @property
    def num_hops(self) -> int:
        return self.path.shape[0] - 1

    def hop(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """Sender/receiver coordinates of hop ``h``."""
        if not 0 <= h < self.num_hops:
            raise IndexError(f"hop {h} out of range for {self.num_hops}-hop request")
        return self.path[h], self.path[h + 1]


@dataclass(frozen=True)
class MultiHopResult:
    """Outcome of multi-hop scheduling.

    Attributes
    ----------
    makespan:
        Slots until every request was fully delivered.
    finish_times:
        Per-request completion slot.
    hops_total:
        Total number of hops over all requests (a trivial lower bound on
        total transmissions).
    """

    makespan: int
    finish_times: np.ndarray
    hops_total: int


def multihop_lower_bound(requests: Sequence[MultiHopRequest]) -> int:
    """Trivial makespan lower bounds for multi-hop scheduling.

    Two facts hold for *any* schedule and any interference model:
    (a) a request of ``k`` hops needs at least ``k`` slots (its hops are
    sequential); (b) at most ``total hops`` single-hop transmissions fit
    into ``total hops`` slots only if every slot serves one, so with a
    per-slot service cap of ``n`` requests, ``ceil(hops_total / n)``
    slots are needed.  The dilation bound (a) dominates on long chains,
    the congestion-style bound (b) on wide workloads — the classic
    ``Ω(dilation + congestion)`` pair in its model-free form.
    """
    if not requests:
        raise ValueError("need at least one request")
    dilation = max(r.num_hops for r in requests)
    hops_total = sum(r.num_hops for r in requests)
    congestion = int(np.ceil(hops_total / len(requests)))
    return max(dilation, congestion)


def multihop_latency(
    requests: Sequence[MultiHopRequest],
    *,
    beta: float,
    alpha: float,
    noise: float = 0.0,
    power: "PowerAssignment | None" = None,
    channel: str = "nonfading",
    rng=None,
    max_slots: "int | None" = None,
    slot_block: "int | None" = None,
) -> MultiHopResult:
    """Schedule all requests hop-by-hop with a moving frontier.

    In each slot the head hops of all unfinished requests form a
    single-hop instance; a capacity-maximizing feasible subset of them
    transmits.  Under a stochastic channel, service within the slot is
    random (exact Theorem-1 probabilities for ``"rayleigh"``, sampled
    for other families).

    Parameters
    ----------
    requests:
        The multi-hop requests.
    beta, alpha, noise:
        SINR threshold, path-loss exponent, ambient noise.
    power:
        Power assignment for relay transmissions (default uniform 1).
    channel, rng:
        Like the single-hop schedulers — except ``channel`` must be a
        *spec string*: the frontier instance changes when a hop is
        served, so a fresh channel is built per frontier epoch
        (block-fading coherence carries within an epoch, not across
        frontier advances).
    max_slots:
        Safety cap (default ``50 · total hops``).
    slot_block:
        Speculative block cap of the fixed-pattern engine path
        (``None`` → the process default); results are identical for
        every value.

    Returns
    -------
    :class:`MultiHopResult`
    """
    check_positive(beta, "beta")
    check_positive(alpha, "alpha")
    if not isinstance(channel, str):
        raise TypeError(
            "multihop_latency accepts channel *spec strings* only; the "
            "instance changes every slot so a bound Channel cannot be reused"
        )
    if not requests:
        raise ValueError("need at least one request")
    gen = as_generator(rng)
    pw = power if power is not None else UniformPower(1.0)

    progress = np.zeros(len(requests), dtype=np.int64)  # next hop per request
    finish = np.full(len(requests), -1, dtype=np.int64)
    hops_total = sum(r.num_hops for r in requests)
    cap = max_slots if max_slots is not None else 50 * hops_total
    slot = 0
    while np.any(finish < 0):
        if slot >= cap:
            raise RuntimeError(f"multi-hop scheduler exceeded {cap} slots")
        active_requests = [k for k in range(len(requests)) if finish[k] < 0]
        senders = np.array([requests[k].hop(int(progress[k]))[0] for k in active_requests])
        receivers = np.array([requests[k].hop(int(progress[k]))[1] for k in active_requests])
        net = Network(senders, receivers)
        inst = SINRInstance.from_network(net, pw, alpha, noise)
        chosen = greedy_capacity(inst, beta, margin=1.0)
        if chosen.size == 0:
            chosen = np.array([int(np.argmax(inst.signal))], dtype=np.intp)
        mask = np.zeros(inst.n, dtype=bool)
        mask[chosen] = True
        ch = make_channel(channel, inst, beta)
        fields = SlotFieldBuffer(ch, gen)
        if ch.is_deterministic:
            ok = fields.apply(0, mask[None])[0] & mask
            used = 1
        else:
            used, ok = run_fixed_pattern(
                fields, 0, mask, max_rows=cap - slot, slot_block=slot_block
            )
        slot += used
        for local, k in enumerate(active_requests):
            if ok[local]:
                progress[k] += 1
                if progress[k] == requests[k].num_hops:
                    finish[k] = slot
    return MultiHopResult(
        makespan=slot, finish_times=finish, hops_total=hops_total
    )
