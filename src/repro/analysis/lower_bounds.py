"""Latency lower bounds.

Reporting a scheduler's latency means little without a lower bound on
the optimum.  Two classic arguments are implemented:

* **capacity bound** — any schedule needs at least
  ``ceil(n / C*)`` slots, where ``C*`` is (an upper estimate of) the
  maximum number of links any single slot can serve.  We upper-bound
  ``C*`` by the best set found by local search plus an optional additive
  slack for the estimation error (on small instances the exact B&B value
  can be used).
* **conflict-clique bound** — links that are pairwise infeasible (no two
  can succeed in the same slot) must occupy distinct slots, so any clique
  in the pairwise-conflict graph lower-bounds the latency.  A greedy
  clique heuristic is used (maximum clique is NP-hard; any clique is a
  valid bound).

``latency_lower_bound`` returns the max of both.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.graphs import conflict_graph
from repro.capacity.optimum import local_search_capacity, optimal_capacity_bruteforce
from repro.core.sinr import SINRInstance
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = [
    "capacity_latency_lower_bound",
    "conflict_clique_lower_bound",
    "latency_lower_bound",
]


def capacity_latency_lower_bound(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    restarts: int = 8,
    exact: bool = False,
) -> int:
    """``ceil(n / C*)`` with ``C*`` the single-slot capacity.

    With the local-search *estimate* of ``C*`` the bound is heuristic
    (an underestimate of ``C*`` would overstate the bound); pass
    ``exact=True`` on small instances for a certified value.
    """
    check_positive(beta, "beta")
    if exact:
        cap = optimal_capacity_bruteforce(instance, beta).size
    else:
        cap = local_search_capacity(
            instance, beta, as_generator(rng), restarts=restarts
        ).size
    if cap == 0:
        return instance.n  # nothing can ever be scheduled together
    return int(np.ceil(instance.n / cap))


def conflict_clique_lower_bound(instance: SINRInstance, beta: float) -> int:
    """Size of a greedily-built clique of pairwise-conflicting links.

    Every member of such a clique needs its own slot, so the clique size
    lower-bounds any schedule's length.  Greedy: order links by conflict
    degree and insert when compatible with all current members.  Links
    blocked by noise alone conflict with everything (they can never be
    served), so they are excluded — a schedule for the viable links is
    what the bound speaks about.
    """
    check_positive(beta, "beta")
    viable = instance.signal > beta * instance.noise
    conflict = conflict_graph(instance, beta)
    degree = conflict.sum(axis=1)
    clique: list[int] = []
    for k in np.argsort(-degree):
        k = int(k)
        if not viable[k]:
            continue
        if all(conflict[k, m] for m in clique):
            clique.append(k)
    return max(1, len(clique))


def latency_lower_bound(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    restarts: int = 8,
) -> int:
    """Best available latency lower bound (max of both arguments)."""
    return max(
        capacity_latency_lower_bound(instance, beta, rng, restarts=restarts),
        conflict_clique_lower_bound(instance, beta),
    )
