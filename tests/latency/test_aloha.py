"""Tests for ALOHA-style contention resolution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import line_network, paper_random_network
from repro.latency.aloha import aloha_latency

BETA = 2.5


def random_instance(seed: int, n: int = 15) -> SINRInstance:
    s, r = paper_random_network(n, rng=seed)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


class TestNonFading:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_everyone_served(self, seed):
        inst = random_instance(seed)
        result = aloha_latency(inst, BETA, rng=seed)
        assert np.all(result.served_at >= 0)
        assert result.latency == result.schedule.length
        assert 0.0 < result.q_used <= 0.5

    def test_served_slot_really_served(self):
        inst = random_instance(2)
        result = aloha_latency(inst, BETA, rng=3)
        for i in range(inst.n):
            slot = result.schedule.slots[result.served_at[i]]
            assert i in slot.tolist()
            assert bool(inst.successes(slot, BETA)[i])

    def test_fixed_probability(self):
        inst = random_instance(4)
        result = aloha_latency(inst, BETA, rng=5, q=0.25)
        assert result.q_used == 0.25

    def test_adaptive_mode_finishes(self):
        inst = random_instance(6)
        result = aloha_latency(inst, BETA, rng=7, q="adaptive")
        assert np.all(result.served_at >= 0)

    def test_isolated_links_fast(self):
        s, r = line_network(4, spacing=10000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 0.0)
        result = aloha_latency(inst, BETA, rng=8)
        # Auto probability is 1/2 (no contention); expect ~2 slots per link.
        assert result.latency < 40

    def test_reproducible(self):
        inst = random_instance(9)
        a = aloha_latency(inst, BETA, rng=11)
        b = aloha_latency(inst, BETA, rng=11)
        assert a.latency == b.latency

    def test_validation(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            aloha_latency(inst, BETA, q=0.0)
        with pytest.raises(ValueError):
            aloha_latency(inst, BETA, q=0.9)
        with pytest.raises(ValueError):
            aloha_latency(inst, BETA, channel="psychic")
        with pytest.raises(ValueError):
            aloha_latency(inst, BETA, repeats=0)

    def test_noise_blocked_rejected(self):
        gains = np.array([[1.0, 0.0], [0.0, 100.0]])
        inst = SINRInstance(gains, noise=1.0)
        with pytest.raises(ValueError):
            aloha_latency(inst, beta=2.0)


class TestRayleigh:
    def test_physical_slots_are_protocol_steps_times_repeats(self):
        inst = random_instance(12, n=10)
        result = aloha_latency(inst, BETA, rng=13, channel="rayleigh", repeats=4)
        assert result.latency == result.protocol_steps * 4

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_everyone_served_rayleigh(self, seed):
        inst = random_instance(seed, n=10)
        result = aloha_latency(inst, BETA, rng=seed, channel="rayleigh")
        assert np.all(result.served_at >= 0)

    def test_transformation_protocol_steps_comparable(self):
        """Protocol steps under the 4-repeat transformation should not be
        (much) worse than the non-fading protocol — the Section-4 claim."""
        inst = random_instance(14)
        nf_steps = np.mean(
            [aloha_latency(inst, BETA, rng=t).protocol_steps for t in range(8)]
        )
        ray_steps = np.mean(
            [
                aloha_latency(inst, BETA, rng=100 + t, channel="rayleigh").protocol_steps
                for t in range(8)
            ]
        )
        assert ray_steps <= 2.0 * nf_steps
