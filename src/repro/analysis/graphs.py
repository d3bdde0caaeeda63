"""Graph views of SINR instances.

Graph-based interference models predate SINR models (the paper's
introduction contrasts the two); these views expose the graph shadow of
an SINR instance as plain arrays:

* :func:`conflict_graph` — symmetric boolean adjacency matrix with an
  edge wherever two links cannot share a slot (either one fails next to
  the other); its cliques lower-bound latency, its independent sets are
  *candidate* (not sufficient!) schedules — quantifying exactly what
  graph models miss.
* :func:`graph_model_gap` — how wrong the graph abstraction is on an
  instance: the fraction of conflict-graph-independent sets (sampled)
  that are *not* SINR-feasible, i.e. interference that only the additive
  SINR constraint sees.
"""

from __future__ import annotations

import numpy as np

from repro.core.sinr import SINRInstance
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["conflict_graph", "graph_model_gap"]


def conflict_graph(instance: SINRInstance, beta: float) -> np.ndarray:
    """Pairwise-conflict adjacency: ``(n, n)`` boolean, symmetric, zero
    diagonal; entry ``[i, j]`` is ``True`` iff links i and j cannot both
    succeed when only the two of them transmit."""
    check_positive(beta, "beta")
    # i fails next to j iff S̄ii < β (S̄ji + ν); vectorized over all pairs.
    fail = instance.signal[None, :] < beta * (instance.gains + instance.noise)
    np.fill_diagonal(fail, False)
    return fail | fail.T


def graph_model_gap(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    num_samples: int = 200,
) -> float:
    """Fraction of sampled conflict-graph-independent sets that are *not*
    SINR-feasible.

    Graph interference models treat pairwise compatibility as sufficient;
    the SINR model adds up interference from many weak neighbours.  This
    statistic measures how often that sum flips the verdict on an
    instance — 0 means the graph abstraction happens to be exact, large
    values mean the SINR machinery is earning its keep (the motivation
    the paper's introduction sketches).

    Independent sets are sampled by randomized greedy over the conflict
    graph.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    gen = as_generator(rng)
    conflict = conflict_graph(instance, beta)
    n = instance.n
    viable = instance.signal > beta * instance.noise
    violations = 0
    effective = 0
    for _ in range(num_samples):
        order = gen.permutation(n)
        chosen: list[int] = []
        blocked = np.zeros(n, dtype=bool)
        for v in order:
            v = int(v)
            if not viable[v] or blocked[v]:
                continue
            chosen.append(v)
            blocked |= conflict[v]
        if len(chosen) <= 1:
            continue
        effective += 1
        if not instance.is_feasible(np.array(chosen), beta):
            violations += 1
    if effective == 0:
        return 0.0
    return violations / effective
