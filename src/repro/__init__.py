"""repro — Scheduling in Wireless Networks with Rayleigh-Fading Interference.

A complete, executable reproduction of Dams, Hoefer & Kesselheim
(SPAA 2012): the non-fading SINR and Rayleigh-fading interference
models, the closed-form success probabilities and their bounds
(Theorem 1 / Lemma 1), the black-box model transfer (Lemma 2), the
``O(log* n)`` simulation of the Rayleigh optimum (Theorem 2 /
Algorithm 1), capacity-maximization and latency-minimization algorithms
for the non-fading model together with their Rayleigh transfers, the
regret-learning dynamics of Section 6, and the Section-7 simulation
harness (Figures 1–2).

Quickstart
----------
>>> import numpy as np
>>> from repro import (Network, UniformPower, SINRInstance,
...                    paper_random_network, greedy_capacity,
...                    success_probability)
>>> senders, receivers = paper_random_network(50, rng=0)
>>> net = Network(senders, receivers)
>>> inst = SINRInstance.from_network(net, UniformPower(2.0), alpha=2.2,
...                                  noise=4e-7)
>>> chosen = greedy_capacity(inst, beta=2.5)        # non-fading schedule
>>> q = np.zeros(50); q[chosen] = 1.0
>>> expected = success_probability(inst, q, 2.5)    # Rayleigh, Theorem 1
>>> bool(expected[chosen].sum() >= len(chosen) / np.e)  # Lemma 2
True
"""

from repro.analysis import (
    conflict_graph,
    expected_capacity,
    expected_capacity_gradient,
    graph_model_gap,
    latency_lower_bound,
    measured_optimum_gap,
    optimize_transmission_probabilities,
)
from repro.capacity import (
    flexible_rate_capacity,
    greedy_capacity,
    local_search_capacity,
    optimal_capacity_bruteforce,
    power_control_capacity,
)
from repro.channel import (
    BlockFadingChannel,
    Channel,
    MonteCarloChannel,
    NonFadingChannel,
    RayleighChannel,
    make_channel,
    parse_channel_spec,
)
from repro.core import (
    CustomPower,
    LengthScaledPower,
    LinearPower,
    Link,
    Network,
    PowerAssignment,
    SINRInstance,
    SquareRootPower,
    UniformPower,
    affectance_matrix,
    is_feasible_set,
    min_feasible_powers,
)
from repro.fading import (
    FadingModel,
    NakagamiFading,
    NoFading,
    RayleighFading,
    RicianFading,
    estimate_expected_utility,
    estimate_success_probability,
    expected_successes_exact,
    expected_successes_with_model,
    simulate_sinr,
    simulate_slots,
    success_probability,
    success_probability_conditional,
    success_probability_lower,
    success_probability_upper,
)
from repro.geometry import (
    EuclideanMetric,
    Metric,
    PNormMetric,
    TorusMetric,
    cluster_network,
    grid_network,
    line_network,
    nested_pairs_network,
    paper_random_network,
    poisson_network,
)
from repro.latency import (
    MultiHopRequest,
    Schedule,
    aloha_latency,
    decay_latency,
    multihop_latency,
    multihop_lower_bound,
    repeated_max_latency,
    validate_schedule,
)
from repro.io import load_instance, load_network, save_instance, save_network
from repro.learning import (
    CapacityGame,
    Exp3Learner,
    GameResult,
    RWMLearner,
    RWMLearnerBank,
    best_response_dynamics,
    is_equilibrium,
    price_of_anarchy_sample,
)
from repro.transform import (
    lemma2_lower_bound,
    rayleigh_expected_binary,
    simulate_rayleigh_optimum,
    simulation_schedule,
    transfer_capacity_algorithm,
    transformed_step_success_probability,
)
from repro.utility import (
    BinaryUtility,
    ShannonUtility,
    UtilityProfile,
    WeightedUtility,
)
from repro.utils import RngFactory, log_star

__version__ = "1.0.0"

__all__ = [
    "BinaryUtility",
    "BlockFadingChannel",
    "CapacityGame",
    "Channel",
    "CustomPower",
    "EuclideanMetric",
    "Exp3Learner",
    "FadingModel",
    "GameResult",
    "LengthScaledPower",
    "LinearPower",
    "Link",
    "Metric",
    "MonteCarloChannel",
    "MultiHopRequest",
    "NakagamiFading",
    "Network",
    "NoFading",
    "NonFadingChannel",
    "PNormMetric",
    "PowerAssignment",
    "RWMLearner",
    "RWMLearnerBank",
    "RayleighChannel",
    "RayleighFading",
    "RicianFading",
    "RngFactory",
    "SINRInstance",
    "Schedule",
    "ShannonUtility",
    "SquareRootPower",
    "TorusMetric",
    "UniformPower",
    "UtilityProfile",
    "WeightedUtility",
    "affectance_matrix",
    "aloha_latency",
    "best_response_dynamics",
    "cluster_network",
    "conflict_graph",
    "decay_latency",
    "estimate_expected_utility",
    "estimate_success_probability",
    "expected_capacity",
    "expected_capacity_gradient",
    "expected_successes_exact",
    "expected_successes_with_model",
    "flexible_rate_capacity",
    "graph_model_gap",
    "greedy_capacity",
    "grid_network",
    "is_equilibrium",
    "is_feasible_set",
    "latency_lower_bound",
    "lemma2_lower_bound",
    "line_network",
    "load_instance",
    "load_network",
    "local_search_capacity",
    "log_star",
    "make_channel",
    "measured_optimum_gap",
    "min_feasible_powers",
    "multihop_latency",
    "multihop_lower_bound",
    "nested_pairs_network",
    "optimal_capacity_bruteforce",
    "optimize_transmission_probabilities",
    "paper_random_network",
    "parse_channel_spec",
    "poisson_network",
    "power_control_capacity",
    "price_of_anarchy_sample",
    "rayleigh_expected_binary",
    "repeated_max_latency",
    "save_instance",
    "save_network",
    "simulate_rayleigh_optimum",
    "simulate_sinr",
    "simulate_slots",
    "simulation_schedule",
    "success_probability",
    "success_probability_conditional",
    "success_probability_lower",
    "success_probability_upper",
    "transfer_capacity_algorithm",
    "transformed_step_success_probability",
    "validate_schedule",
]
