"""Tests for multi-hop scheduling."""

import numpy as np
import pytest

from repro.latency.multihop import (
    MultiHopRequest,
    multihop_latency,
    multihop_lower_bound,
)

BETA = 2.0
ALPHA = 2.5


def straight_path(start, end, hops):
    """Equally spaced relay path from start to end."""
    return MultiHopRequest(
        np.linspace(np.asarray(start, float), np.asarray(end, float), hops + 1)
    )


class TestMultiHopRequest:
    def test_hop_accessors(self):
        req = straight_path([0, 0], [30, 0], hops=3)
        assert req.num_hops == 3
        s, r = req.hop(1)
        np.testing.assert_allclose(s, [10.0, 0.0])
        np.testing.assert_allclose(r, [20.0, 0.0])

    def test_hop_out_of_range(self):
        req = straight_path([0, 0], [10, 0], hops=1)
        with pytest.raises(IndexError):
            req.hop(1)

    def test_too_short_path_rejected(self):
        with pytest.raises(ValueError):
            MultiHopRequest(np.array([[0.0, 0.0]]))


class TestMultihopLatency:
    def test_single_isolated_request(self):
        req = straight_path([0, 0], [30, 0], hops=3)
        result = multihop_latency([req], beta=BETA, alpha=ALPHA, noise=0.0)
        # One hop per slot minimum; isolated request: exactly 3 slots.
        assert result.makespan == 3
        assert result.finish_times.tolist() == [3]
        assert result.hops_total == 3

    def test_parallel_far_requests(self):
        """Far-apart requests should pipeline in parallel: makespan equals
        the longest request, not the sum."""
        reqs = [
            straight_path([0, 0], [30, 0], hops=3),
            straight_path([100000, 0], [100030, 0], hops=3),
        ]
        result = multihop_latency(reqs, beta=BETA, alpha=ALPHA, noise=0.0)
        assert result.makespan == 3

    def test_interfering_requests_take_longer(self):
        reqs = [
            straight_path([0, 0], [30, 0], hops=3),
            straight_path([0, 5], [30, 5], hops=3),  # right next to it
        ]
        result = multihop_latency(reqs, beta=BETA, alpha=ALPHA, noise=0.0)
        assert result.makespan > 3  # hops must serialize at least partly
        assert np.all(result.finish_times > 0)

    def test_rayleigh_mode_completes(self):
        reqs = [
            straight_path([0, 0], [30, 0], hops=2),
            straight_path([500, 0], [530, 0], hops=2),
        ]
        result = multihop_latency(
            reqs, beta=BETA, alpha=ALPHA, noise=0.0, channel="rayleigh", rng=0
        )
        assert np.all(result.finish_times > 0)
        assert result.makespan >= 2

    def test_finish_times_bounded_by_makespan(self):
        reqs = [straight_path([0, 0], [40, 0], hops=4),
                straight_path([10, 50], [50, 50], hops=2)]
        result = multihop_latency(reqs, beta=BETA, alpha=ALPHA, noise=0.0)
        assert result.finish_times.max() == result.makespan

    def test_lower_bound_respected(self):
        reqs = [
            straight_path([0, 0], [40, 0], hops=4),
            straight_path([10, 50], [50, 50], hops=2),
            straight_path([200, 0], [230, 0], hops=3),
        ]
        lb = multihop_lower_bound(reqs)
        assert lb == 4  # dilation dominates here
        result = multihop_latency(reqs, beta=BETA, alpha=ALPHA, noise=0.0)
        assert result.makespan >= lb

    def test_lower_bound_congestion_side(self):
        # 1 long request + congestion bound: dilation 6 vs avg hops 6/1.
        reqs = [straight_path([0, 0], [60, 0], hops=6)]
        assert multihop_lower_bound(reqs) == 6
        with pytest.raises(ValueError):
            multihop_lower_bound([])

    def test_validation(self):
        with pytest.raises(ValueError):
            multihop_latency([], beta=BETA, alpha=ALPHA)
        req = straight_path([0, 0], [10, 0], hops=1)
        with pytest.raises(ValueError):
            multihop_latency([req], beta=0.0, alpha=ALPHA)
        with pytest.raises(ValueError):
            multihop_latency([req], beta=BETA, alpha=ALPHA, channel="warp")
