"""Tests for the affectance-greedy capacity algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capacity.greedy import greedy_capacity
from repro.core.network import Network
from repro.core.power import SquareRootPower, UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import line_network, paper_random_network

BETA = 2.5


def random_instance(seed: int, n: int = 25) -> SINRInstance:
    s, r = paper_random_network(n, rng=seed)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


class TestFeasibility:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_output_always_feasible(self, seed):
        inst = random_instance(seed)
        chosen = greedy_capacity(inst, BETA)
        assert inst.is_feasible(chosen, BETA)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), margin=st.sampled_from([0.25, 0.5, 1.0]))
    def test_margin_respected(self, seed, margin):
        from repro.core.affectance import affectance_matrix, total_affectance

        inst = random_instance(seed)
        chosen = greedy_capacity(inst, BETA, margin=margin)
        if chosen.size:
            a = affectance_matrix(inst, BETA, clamped=False)
            mask = np.zeros(inst.n, dtype=bool)
            mask[chosen] = True
            incoming = total_affectance(a, mask)
            assert np.all(incoming[mask] <= margin + 1e-9)

    def test_maximal_at_full_margin(self):
        """With margin=1, no excluded link can be added without breaking
        feasibility."""
        inst = random_instance(7)
        chosen = greedy_capacity(inst, BETA, margin=1.0)
        chosen_set = set(chosen.tolist())
        for k in range(inst.n):
            if k in chosen_set:
                continue
            trial = np.array(sorted(chosen_set | {k}))
            assert not inst.is_feasible(trial, BETA)


class TestBehaviour:
    def test_far_apart_links_all_chosen(self):
        s, r = line_network(6, spacing=5000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 0.0)
        assert greedy_capacity(inst, BETA).size == 6

    def test_noise_blocked_links_rejected(self):
        gains = np.array([[1.0, 0.0], [0.0, 100.0]])
        inst = SINRInstance(gains, noise=1.0)
        chosen = greedy_capacity(inst, beta=2.0)  # link 0 has S̄/ν = 1 < 2
        assert chosen.tolist() == [1]

    def test_smaller_margin_smaller_sets_on_average(self):
        """Per-instance monotonicity in the margin does NOT hold (the
        admission order interacts with the budget), but the ensemble
        average must drop with the budget."""
        tight_total = loose_total = 0
        for seed in range(15):
            inst = random_instance(seed)
            tight_total += greedy_capacity(inst, BETA, margin=0.5).size
            loose_total += greedy_capacity(inst, BETA, margin=1.0).size
        assert tight_total < loose_total

    def test_random_order_reproducible(self):
        inst = random_instance(3)
        a = greedy_capacity(inst, BETA, order="random", rng=np.random.default_rng(5))
        b = greedy_capacity(inst, BETA, order="random", rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_explicit_order(self):
        inst = random_instance(4)
        order = np.arange(inst.n)[::-1]
        chosen = greedy_capacity(inst, BETA, order=order)
        assert inst.is_feasible(chosen, BETA)

    def test_weighted_prefers_heavy_links(self):
        """Two mutually exclusive links: the heavy one must be chosen."""
        # Strong mutual interference so only one can win.
        gains = np.array([[4.0, 4.0], [4.0, 4.0]])
        inst = SINRInstance(gains, noise=0.0)
        w_light_first = greedy_capacity(inst, 1.5, weights=np.array([10.0, 1.0]))
        assert w_light_first.tolist() == [0]
        w_heavy_second = greedy_capacity(inst, 1.5, weights=np.array([1.0, 10.0]))
        assert w_heavy_second.tolist() == [1]

    def test_sqrt_power_instance_works(self):
        s, r = paper_random_network(20, rng=11)
        net = Network(s, r)
        inst = SINRInstance.from_network(net, SquareRootPower(2.0), 2.2, 4e-7)
        chosen = greedy_capacity(inst, BETA)
        assert inst.is_feasible(chosen, BETA)
        assert chosen.size > 0


class TestValidation:
    def test_bad_margin(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            greedy_capacity(inst, BETA, margin=0.0)
        with pytest.raises(ValueError):
            greedy_capacity(inst, BETA, margin=1.5)

    def test_bad_order(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            greedy_capacity(inst, BETA, order="nope")
        with pytest.raises(ValueError):
            greedy_capacity(inst, BETA, order=np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            greedy_capacity(inst, BETA, order="random")  # rng missing

    def test_bad_weights(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            greedy_capacity(inst, BETA, weights=np.full(inst.n, -1.0))
        with pytest.raises(ValueError):
            greedy_capacity(inst, BETA, weights=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # NaN < 0 is False, so a sign test alone let these through.
        s, r = paper_random_network(12, area=100.0, rng=3)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        with pytest.raises(ValueError, match="non-negative vector"):
            greedy_capacity(inst, BETA, weights=np.full(inst.n, bad))
        w = np.ones(inst.n)
        w[5] = bad
        with pytest.raises(ValueError, match="non-negative vector"):
            greedy_capacity(inst, BETA, weights=w)
