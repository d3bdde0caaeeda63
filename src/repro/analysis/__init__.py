"""Analysis tools built on top of the core models.

* :mod:`~repro.analysis.rayleigh_optimum` — numerical maximization of the
  expected Rayleigh capacity over transmission-probability vectors
  (the quantity Theorem 2 bounds against the non-fading optimum).
* :mod:`~repro.analysis.model_gap` — the measured Rayleigh/non-fading
  optimum ratio, the paper's open question ("the ``O(log* n)`` factor …
  might be reduced to a constant, which we were not able to prove").
* :mod:`~repro.analysis.lower_bounds` — latency lower bounds (capacity
  and conflict-clique arguments) used to report honest approximation
  ratios for the schedulers.
"""

from repro.analysis.graphs import conflict_graph, graph_model_gap
from repro.analysis.lower_bounds import (
    capacity_latency_lower_bound,
    conflict_clique_lower_bound,
    latency_lower_bound,
)
from repro.analysis.model_gap import measured_optimum_gap
from repro.analysis.rayleigh_optimum import (
    expected_capacity,
    expected_capacity_gradient,
    optimize_transmission_probabilities,
)

__all__ = [
    "capacity_latency_lower_bound",
    "conflict_graph",
    "graph_model_gap",
    "conflict_clique_lower_bound",
    "expected_capacity",
    "expected_capacity_gradient",
    "latency_lower_bound",
    "measured_optimum_gap",
    "optimize_transmission_probabilities",
]
