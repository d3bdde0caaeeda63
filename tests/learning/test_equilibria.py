"""Tests for Nash equilibria of the capacity game."""

import numpy as np
import pytest

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import line_network, paper_random_network
from repro.learning.equilibria import (
    best_response_dynamics,
    equilibrium_welfare,
    is_equilibrium,
    price_of_anarchy_sample,
)

BETA = 2.5


def random_instance(seed: int, n: int = 25) -> SINRInstance:
    s, r = paper_random_network(n, rng=seed)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


class TestIsEquilibrium:
    def test_all_send_isolated_links(self):
        s, r = line_network(4, spacing=10000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 1e-9)
        assert is_equilibrium(inst, np.ones(4, dtype=bool), BETA)
        # All-idle is NOT an equilibrium: any link would gain by sending.
        assert not is_equilibrium(inst, np.zeros(4, dtype=bool), BETA)

    def test_conflicting_pair(self):
        """Two mutually destructive links: exactly-one-sends profiles are
        equilibria; both-send and both-idle are not."""
        gains = np.array([[4.0, 4.0], [4.0, 4.0]])
        inst = SINRInstance(gains, noise=0.0)
        assert is_equilibrium(inst, np.array([True, False]), 1.5)
        assert is_equilibrium(inst, np.array([False, True]), 1.5)
        assert not is_equilibrium(inst, np.array([True, True]), 1.5)
        assert not is_equilibrium(inst, np.array([False, False]), 1.5)

    def test_rayleigh_threshold_at_half(self):
        """Single link vs noise: sends iff P[success] > 1/2, i.e. iff
        exp(-βν/S̄) > 1/2."""
        # exp(-1 * 0.5 / 1) = 0.6065 > 0.5 → sending is the equilibrium.
        inst = SINRInstance(np.array([[1.0]]), noise=0.5)
        assert is_equilibrium(inst, np.array([True]), 1.0, channel="rayleigh")
        assert not is_equilibrium(inst, np.array([False]), 1.0, channel="rayleigh")
        # exp(-1 * 1.0 / 1) = 0.3679 < 0.5 → idling is the equilibrium.
        inst2 = SINRInstance(np.array([[1.0]]), noise=1.0)
        assert is_equilibrium(inst2, np.array([False]), 1.0, channel="rayleigh")
        assert not is_equilibrium(inst2, np.array([True]), 1.0, channel="rayleigh")

    def test_validation(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            is_equilibrium(inst, np.ones(3, dtype=bool), BETA)
        with pytest.raises(ValueError):
            is_equilibrium(inst, np.ones(inst.n, dtype=bool), BETA, channel="warp")


class TestBestResponse:
    def test_converged_profile_is_equilibrium(self):
        for seed in range(6):
            inst = random_instance(seed)
            res = best_response_dynamics(inst, BETA, rng=seed)
            if res.converged:
                assert is_equilibrium(inst, res.actions, BETA)

    def test_nonfading_equilibrium_senders_all_succeed(self):
        inst = random_instance(7)
        res = best_response_dynamics(inst, BETA, rng=1)
        if res.converged:
            # Welfare equals the sender count: every sender is received.
            assert res.welfare == pytest.approx(res.actions.sum())
            assert inst.is_feasible(res.actions, BETA)

    def test_rayleigh_convergence_and_welfare(self):
        inst = random_instance(8)
        res = best_response_dynamics(inst, BETA, rng=2, channel="rayleigh")
        assert res.welfare == pytest.approx(
            equilibrium_welfare(inst, res.actions, BETA, channel="rayleigh")
        )
        if res.converged:
            assert is_equilibrium(inst, res.actions, BETA, channel="rayleigh", tolerance=1e-9)

    def test_initial_profile_respected(self):
        inst = random_instance(9)
        res = best_response_dynamics(
            inst, BETA, rng=3, initial=np.zeros(inst.n, dtype=bool), max_rounds=1
        )
        assert res.steps >= 0  # ran without error from the given start

    def test_reproducible(self):
        inst = random_instance(10)
        a = best_response_dynamics(inst, BETA, rng=4)
        b = best_response_dynamics(inst, BETA, rng=4)
        np.testing.assert_array_equal(a.actions, b.actions)
        assert a.steps == b.steps

    def test_validation(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            best_response_dynamics(inst, BETA, max_rounds=0)
        with pytest.raises(ValueError):
            best_response_dynamics(inst, BETA, initial=np.zeros(3, dtype=bool))


class TestPriceOfAnarchy:
    def test_sample_structure(self):
        inst = random_instance(11)
        sample = price_of_anarchy_sample(inst, BETA, rng=5, num_starts=4)
        assert sample["num_converged"] >= 1
        assert sample["worst"] <= sample["best"] + 1e-12
        assert sample["poa"] >= sample["pos"] - 1e-12

    def test_nonfading_poa_modest_on_random_instances(self):
        inst = random_instance(12, n=30)
        sample = price_of_anarchy_sample(inst, BETA, rng=6, num_starts=6)
        assert sample["poa"] <= 2.0

    def test_degenerate_instance(self):
        """Nothing feasible: PoA undefined, reported as NaN."""
        gains = np.eye(2) * 0.5 + 0.01
        inst = SINRInstance(gains, noise=10.0)
        sample = price_of_anarchy_sample(inst, 1.0, rng=7, num_starts=2)
        assert np.isnan(sample["poa"])
