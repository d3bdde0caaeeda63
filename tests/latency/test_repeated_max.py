"""Tests for the repeated single-slot maximization scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import line_network, paper_random_network
from repro.latency.repeated_max import repeated_max_latency
from repro.latency.schedule import validate_schedule

BETA = 2.5


def random_instance(seed: int, n: int = 20) -> SINRInstance:
    s, r = paper_random_network(n, rng=seed)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


class TestNonFading:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_schedule_serves_everyone(self, seed):
        inst = random_instance(seed)
        result = repeated_max_latency(inst, BETA)
        assert result.schedule.covers_all()
        assert validate_schedule(inst, result.schedule, BETA)
        assert np.all(result.served_at >= 0)
        assert result.latency == result.schedule.length

    def test_served_at_slot_consistent(self):
        inst = random_instance(3)
        result = repeated_max_latency(inst, BETA)
        for i in range(inst.n):
            slot = result.schedule.slots[result.served_at[i]]
            assert i in slot

    def test_independent_links_one_slot(self):
        s, r = line_network(5, spacing=10000.0, link_length=5.0)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 0.0)
        assert repeated_max_latency(inst, BETA).latency == 1

    def test_mutually_exclusive_links_n_slots(self):
        n = 4
        gains = np.full((n, n), 5.0)
        inst = SINRInstance(gains, noise=0.0)
        # At β=2 any two simultaneous links fail: SINR = 5/5 = 1 < 2.
        result = repeated_max_latency(inst, beta=2.0)
        assert result.latency == n

    def test_noise_blocked_link_raises(self):
        gains = np.array([[1.0, 0.0], [0.0, 100.0]])
        inst = SINRInstance(gains, noise=1.0)
        with pytest.raises(ValueError):
            repeated_max_latency(inst, beta=2.0)

    def test_custom_algorithm_used(self):
        inst = random_instance(4, n=6)
        calls = []

        def one_at_a_time(instance, beta, candidates):
            calls.append(candidates.size)
            return candidates[:1]

        result = repeated_max_latency(inst, BETA, algorithm=one_at_a_time)
        assert result.latency == 6
        assert calls == [6, 5, 4, 3, 2, 1]

    def test_infeasible_algorithm_output_repaired(self):
        """An algorithm returning an infeasible set must not wedge the
        scheduler."""
        n = 3
        gains = np.full((n, n), 5.0)
        inst = SINRInstance(gains, noise=0.0)

        def bad_algorithm(instance, beta, candidates):
            return candidates  # everything at once — infeasible

        result = repeated_max_latency(inst, beta=2.0, algorithm=bad_algorithm)
        assert result.schedule.covers_all()
        assert np.all(result.served_at >= 0)


class TestRayleigh:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_everyone_eventually_served(self, seed):
        inst = random_instance(seed, n=15)
        result = repeated_max_latency(inst, BETA, channel="rayleigh", rng=seed)
        assert np.all(result.served_at >= 0)
        assert result.latency >= 1

    def test_stochastic_latency_at_least_deterministic_typically(self):
        """Across seeds, mean Rayleigh latency >= non-fading latency."""
        inst = random_instance(8, n=15)
        nf = repeated_max_latency(inst, BETA).latency
        lat = [
            repeated_max_latency(inst, BETA, channel="rayleigh", rng=t).latency
            for t in range(10)
        ]
        assert np.mean(lat) >= nf

    def test_reproducible(self):
        inst = random_instance(9, n=12)
        a = repeated_max_latency(inst, BETA, channel="rayleigh", rng=5)
        b = repeated_max_latency(inst, BETA, channel="rayleigh", rng=5)
        assert a.latency == b.latency
        assert np.array_equal(a.served_at, b.served_at)

    def test_max_slots_guard(self):
        inst = random_instance(10, n=10)
        with pytest.raises(RuntimeError):
            repeated_max_latency(
                inst, BETA, channel="rayleigh", rng=0, max_slots=1,
                algorithm=lambda instance, b, candidates: np.array([], dtype=int),
            )

    def test_unknown_model(self):
        inst = random_instance(0, n=5)
        with pytest.raises(ValueError):
            repeated_max_latency(inst, BETA, channel="quantum")
