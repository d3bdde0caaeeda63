"""Tests for the decay (probability-sweeping) latency protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import line_network, paper_random_network
from repro.latency.decay import decay_latency

BETA = 2.5


def random_instance(seed: int, n: int = 15) -> SINRInstance:
    s, r = paper_random_network(n, rng=seed)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


class TestNonFading:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_everyone_served(self, seed):
        inst = random_instance(seed)
        result = decay_latency(inst, BETA, rng=seed)
        assert np.all(result.served_at >= 0)
        assert result.latency == result.schedule.length

    def test_served_slot_really_served(self):
        inst = random_instance(3)
        result = decay_latency(inst, BETA, rng=1)
        for i in range(inst.n):
            slot = result.schedule.slots[result.served_at[i]]
            assert i in slot.tolist()
            assert bool(inst.successes(slot, BETA)[i])

    def test_no_knowledge_needed(self):
        """Unlike aloha(q='auto'), decay needs no affectance estimate —
        only n.  It must still finish on a contention-heavy instance."""
        s, r = paper_random_network(30, rng=4, area=300.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        result = decay_latency(inst, BETA, rng=5)
        assert np.all(result.served_at >= 0)

    def test_isolated_links_fast(self):
        s, r = line_network(4, spacing=10000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 0.0)
        result = decay_latency(inst, BETA, rng=6)
        # One sweep is 3 slots; a handful of sweeps should finish.
        assert result.latency <= 10 * 3

    def test_reproducible(self):
        inst = random_instance(7)
        assert (
            decay_latency(inst, BETA, rng=8).latency
            == decay_latency(inst, BETA, rng=8).latency
        )

    def test_validation(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            decay_latency(inst, 0.0)
        with pytest.raises(ValueError):
            decay_latency(inst, BETA, channel="warp")
        with pytest.raises(ValueError):
            decay_latency(inst, BETA, repeats=0)
        gains = np.array([[1.0, 0.0], [0.0, 100.0]])
        blocked = SINRInstance(gains, noise=1.0)
        with pytest.raises(ValueError):
            decay_latency(blocked, beta=2.0)

    def test_sweep_cap(self):
        inst = random_instance(9)
        with pytest.raises(RuntimeError):
            decay_latency(inst, BETA, rng=10, max_sweeps=0)


class TestRayleigh:
    def test_everyone_served(self):
        inst = random_instance(11, n=10)
        result = decay_latency(inst, BETA, rng=12, channel="rayleigh")
        assert np.all(result.served_at >= 0)

    def test_physical_slots_multiple_of_repeats_per_step(self):
        inst = random_instance(13, n=10)
        result = decay_latency(inst, BETA, rng=14, channel="rayleigh", repeats=4)
        assert result.latency % 4 == 0
        assert result.latency == 4 * (result.latency // 4)
