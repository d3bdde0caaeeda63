"""Tests for the link-weighted capacity game (Section 2's weighted family)."""

import numpy as np
import pytest

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import paper_random_network
from repro.learning.game import CapacityGame

BETA = 0.5


@pytest.fixture
def instance():
    s, r = paper_random_network(25, rng=88, min_length=0.0, max_length=100.0)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.1, 0.0)


class TestWeightedGame:
    def test_unit_weights_match_binary_game(self, instance):
        binary = CapacityGame(instance, BETA, channel="nonfading", rng=1).play(30)
        weighted = CapacityGame(
            instance, BETA, channel="nonfading", rng=1, weights=np.ones(instance.n)
        ).play(30)
        np.testing.assert_array_equal(binary.actions, weighted.actions)
        np.testing.assert_allclose(
            weighted.weighted_values, weighted.success_counts.astype(float)
        )

    def test_weighted_values_consistent(self, instance):
        w = np.linspace(0.5, 3.0, instance.n)
        res = CapacityGame(
            instance, BETA, channel="rayleigh", rng=2, weights=w
        ).play(40)
        manual = (res.actions & res.send_success) @ w
        np.testing.assert_allclose(res.weighted_values, manual)

    def test_binary_game_has_no_weighted_values(self, instance):
        res = CapacityGame(instance, BETA, rng=3).play(10)
        assert res.weights is None and res.weighted_values is None

    def test_heavy_links_send_more(self, instance):
        """After convergence, heavily weighted links should transmit at
        least as often on average — idling costs them more."""
        w = np.ones(instance.n)
        heavy = np.arange(instance.n) < 5
        w[heavy] = 10.0
        res = CapacityGame(
            instance, BETA, channel="nonfading", rng=4, weights=w
        ).play(150)
        tail = res.actions[-50:]
        assert tail[:, heavy].mean() >= tail[:, ~heavy].mean() - 0.05

    def test_weighted_regret_scales(self, instance):
        w = np.full(instance.n, 2.0)
        res_w = CapacityGame(
            instance, BETA, channel="nonfading", rng=5, weights=w
        ).play(30)
        res_b = CapacityGame(instance, BETA, channel="nonfading", rng=5).play(30)
        # Identical play (same loss ratios), doubled rewards → doubled regret.
        np.testing.assert_array_equal(res_w.actions, res_b.actions)
        np.testing.assert_allclose(
            res_w.realized_regret(), 2.0 * res_b.realized_regret()
        )

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            CapacityGame(instance, BETA, weights=np.zeros(instance.n))
        with pytest.raises(ValueError):
            CapacityGame(instance, BETA, weights=np.ones(3))
        with pytest.raises(ValueError):
            CapacityGame(instance, BETA, weights=np.full(instance.n, np.inf))
