"""Tests for exact branch & bound and the local-search estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capacity.greedy import greedy_capacity
from repro.capacity.optimum import local_search_capacity, optimal_capacity_bruteforce
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import line_network, paper_random_network

BETA = 2.5


def random_instance(seed: int, n: int = 12) -> SINRInstance:
    s, r = paper_random_network(n, rng=seed, area=300.0)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


def exhaustive_optimum(inst: SINRInstance, beta: float) -> int:
    """Literal enumeration of all subsets (n <= 12)."""
    best = 0
    n = inst.n
    for bits in range(1, 1 << n):
        idx = np.array([i for i in range(n) if bits >> i & 1])
        if idx.size > best and inst.is_feasible(idx, beta):
            best = idx.size
    return best


class TestBruteForce:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_exhaustive_enumeration(self, seed):
        inst = random_instance(seed, n=9)
        bb = optimal_capacity_bruteforce(inst, BETA)
        assert inst.is_feasible(bb, BETA)
        assert bb.size == exhaustive_optimum(inst, BETA)

    def test_weighted_objective(self):
        """With weights, B&B maximizes weight, not cardinality."""
        # Three links; 0 and 1 conflict; 2 independent.
        gains = np.array(
            [
                [4.0, 4.0, 0.0],
                [4.0, 4.0, 0.0],
                [0.0, 0.0, 4.0],
            ]
        )
        inst = SINRInstance(gains, noise=0.0)
        w = np.array([5.0, 1.0, 1.0])
        out = optimal_capacity_bruteforce(inst, 1.5, weights=w)
        assert set(out.tolist()) == {0, 2}

    def test_all_feasible_instance(self):
        s, r = line_network(6, spacing=5000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(1.0), 2.2, 0.0)
        assert optimal_capacity_bruteforce(inst, BETA).size == 6

    def test_size_guard(self):
        inst = random_instance(0, n=12)
        with pytest.raises(ValueError):
            optimal_capacity_bruteforce(inst, BETA, max_n=10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # NaN < 0 is False, so a sign test alone let these through.
        s, r = paper_random_network(12, area=100.0, rng=3)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        with pytest.raises(ValueError, match="non-negative vector"):
            optimal_capacity_bruteforce(inst, BETA, weights=np.full(inst.n, bad))
        w = np.ones(inst.n)
        w[5] = bad
        with pytest.raises(ValueError, match="non-negative vector"):
            optimal_capacity_bruteforce(inst, BETA, weights=w)

    def test_noise_blocked_excluded(self):
        gains = np.array([[1.0, 0.0], [0.0, 100.0]])
        inst = SINRInstance(gains, noise=1.0)
        out = optimal_capacity_bruteforce(inst, 2.0)
        assert out.tolist() == [1]


class TestLocalSearch:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_feasible_and_at_least_greedy(self, seed):
        inst = random_instance(seed, n=20)
        ls = local_search_capacity(inst, BETA, rng=seed, restarts=4)
        assert inst.is_feasible(ls, BETA)
        assert ls.size >= greedy_capacity(inst, BETA).size

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_close_to_exact_on_small_instances(self, seed):
        inst = random_instance(seed, n=11)
        exact = optimal_capacity_bruteforce(inst, BETA).size
        ls = local_search_capacity(inst, BETA, rng=seed + 1, restarts=12).size
        assert ls <= exact
        assert ls >= exact - 1  # empirically tight on this family

    def test_reproducible(self):
        inst = random_instance(5, n=18)
        a = local_search_capacity(inst, BETA, rng=42, restarts=3)
        b = local_search_capacity(inst, BETA, rng=42, restarts=3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_restarts(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            local_search_capacity(inst, BETA, restarts=0)

    def test_more_restarts_never_worse(self):
        inst = random_instance(9, n=18)
        few = local_search_capacity(inst, BETA, rng=1, restarts=1).size
        # Different restarts use different random draws, so compare via a
        # shared-seed maximum property: max over more restarts from the
        # same starting stream can only... (streams differ; assert weaker)
        many = local_search_capacity(inst, BETA, rng=1, restarts=8).size
        assert many >= few - 1
