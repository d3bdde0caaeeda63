"""Tests for Theorem 1 — exact Rayleigh success probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sinr import SINRInstance
from repro.fading.success import (
    success_probability,
    success_probability_conditional,
    success_probability_conditional_batch,
)


def random_instance(seed: int, n_max: int = 10) -> SINRInstance:
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, n_max))
    gains = gen.uniform(0.01, 4.0, (n, n))
    gains[np.diag_indices(n)] += 2.0
    return SINRInstance(gains, noise=float(gen.uniform(0.0, 0.5)))


class TestClosedForm:
    def test_two_link_hand_formula(self, two_link_instance):
        """Direct check of Theorem 1's product on the 2-link instance."""
        q = np.array([0.7, 0.4])
        beta = 1.5
        inst = two_link_instance
        expected_0 = (
            0.7
            * np.exp(-beta * 0.5 / 4.0)
            * (1.0 - beta * 0.4 / (beta + 4.0 / 2.0))
        )
        expected_1 = (
            0.4
            * np.exp(-beta * 0.5 / 8.0)
            * (1.0 - beta * 0.7 / (beta + 8.0 / 1.0))
        )
        out = success_probability(inst, q, beta)
        assert out[0] == pytest.approx(expected_0)
        assert out[1] == pytest.approx(expected_1)

    def test_isolated_link_exponential_tail(self):
        """Single link vs noise: P[S >= βν] = exp(-βν / S̄) exactly."""
        inst = SINRInstance(np.array([[3.0]]), noise=2.0)
        out = success_probability(inst, [1.0], 1.5)
        assert out[0] == pytest.approx(np.exp(-1.5 * 2.0 / 3.0))

    def test_no_noise_no_interference_certain(self):
        inst = SINRInstance(np.array([[3.0, 0.0], [0.0, 5.0]]), noise=0.0)
        out = success_probability(inst, [1.0, 1.0], 2.0)
        np.testing.assert_allclose(out, 1.0)

    def test_silent_link_probability_zero(self, two_link_instance):
        out = success_probability(two_link_instance, [0.0, 1.0], 1.0)
        assert out[0] == 0.0

    def test_zero_mean_interferer_harmless(self):
        gains = np.array([[3.0, 0.0], [0.0, 5.0]])
        inst = SINRInstance(gains, noise=0.1)
        with_both = success_probability(inst, [1.0, 1.0], 1.0)
        alone = success_probability(inst, [1.0, 0.0], 1.0)
        assert with_both[0] == pytest.approx(alone[0])


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_decreasing_in_beta(self, seed):
        inst = random_instance(seed)
        gen = np.random.default_rng(seed + 1)
        q = gen.random(inst.n)
        p1 = success_probability(inst, q, 0.5)
        p2 = success_probability(inst, q, 1.5)
        assert np.all(p2 <= p1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_decreasing_in_others_q(self, seed):
        """Raising an interferer's transmit probability can only hurt."""
        inst = random_instance(seed)
        gen = np.random.default_rng(seed + 2)
        q = gen.random(inst.n)
        q_hot = q.copy()
        j = int(gen.integers(0, inst.n))
        q_hot[j] = 1.0
        p = success_probability(inst, q, 1.0)
        p_hot = success_probability(inst, q_hot, 1.0)
        others = np.arange(inst.n) != j
        assert np.all(p_hot[others] <= p[others] + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_linear_in_own_q(self, seed):
        """Q_i is exactly q_i times the conditional probability."""
        inst = random_instance(seed)
        gen = np.random.default_rng(seed + 3)
        q = gen.random(inst.n)
        cond = success_probability_conditional(inst, q, 1.0)
        np.testing.assert_allclose(success_probability(inst, q, 1.0), q * cond)

    def test_probabilities_in_unit_interval(self):
        for seed in range(20):
            inst = random_instance(seed)
            q = np.random.default_rng(seed).random(inst.n)
            p = success_probability(inst, q, 2.0)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestPerLinkBeta:
    def test_vector_beta_matches_scalar(self, three_link_instance):
        q = np.array([0.5, 0.5, 0.5])
        scalar = success_probability(three_link_instance, q, 2.0)
        vector = success_probability(three_link_instance, q, np.full(3, 2.0))
        np.testing.assert_allclose(scalar, vector)

    def test_mixed_thresholds(self, three_link_instance):
        q = np.array([1.0, 1.0, 1.0])
        betas = np.array([0.5, 1.0, 2.0])
        out = success_probability(three_link_instance, q, betas)
        for i, b in enumerate(betas):
            assert out[i] == pytest.approx(
                success_probability(three_link_instance, q, float(b))[i]
            )

    def test_invalid_beta(self, two_link_instance):
        with pytest.raises(ValueError):
            success_probability(two_link_instance, [1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            success_probability(two_link_instance, [1.0, 1.0], np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            success_probability(two_link_instance, [1.0, 1.0], np.array([1.0]))


class TestBatch:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_batch_matches_single(self, seed):
        inst = random_instance(seed)
        gen = np.random.default_rng(seed + 4)
        patterns = gen.random((6, inst.n)) < 0.5
        batch = success_probability_conditional_batch(inst, patterns, 1.2)
        for t in range(6):
            single = success_probability_conditional(
                inst, patterns[t].astype(np.float64), 1.2
            )
            np.testing.assert_allclose(batch[t], single, rtol=1e-10)

    def test_shape_validation(self, two_link_instance):
        with pytest.raises(ValueError):
            success_probability_conditional_batch(
                two_link_instance, np.zeros((3, 5), dtype=bool), 1.0
            )

    def test_q_validation(self, two_link_instance):
        with pytest.raises(ValueError):
            success_probability(two_link_instance, [0.5, 1.5], 1.0)


class TestOverflowSafeFactor:
    """``β·S̄ji`` can overflow on finite gains; the factor must not turn
    into ``inf/inf = NaN`` there (link 1 below hears sender 0 at 1e300)."""

    BETA = 1e12

    @pytest.fixture
    def inst(self):
        return SINRInstance(np.array([[1.0, 1e300], [0.1, 1.0]]), noise=0.0)

    def test_success_probability(self, inst):
        both = success_probability(inst, np.array([1.0, 1.0]), self.BETA)
        assert both[0] == pytest.approx(1.0 / (1e11 + 1.0), rel=1e-12)
        assert both[1] == 0.0
        # Sender 0 silent: link 1 has no interferer and no noise.
        np.testing.assert_array_equal(
            success_probability(inst, np.array([0.0, 1.0]), self.BETA), [0.0, 1.0]
        )

    def test_rayleigh_channel(self, inst):
        from repro.channel.rayleigh import RayleighChannel

        ch = RayleighChannel(inst, self.BETA)
        both = ch.success_probability(np.array([1.0, 1.0]))
        assert both[0] == pytest.approx(1.0 / (1e11 + 1.0), rel=1e-12)
        assert both[1] == 0.0
        np.testing.assert_array_equal(
            ch.success_probability(np.array([0.0, 1.0])), [0.0, 1.0]
        )

    def test_conditional_batch(self, inst):
        from repro.fading.success import Theorem1Kernel

        kernel = Theorem1Kernel(inst, self.BETA)
        out = kernel.conditional_batch(np.array([[0, 1], [0, 0], [1, 1]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[:2, 1], [1.0, 1.0])
        assert out[2, 1] < 1e-300
        assert np.all(np.isfinite(kernel.log_factors))

    def test_expected_capacity_gradient(self, inst):
        from repro.analysis.rayleigh_optimum import expected_capacity_gradient

        grad = expected_capacity_gradient(inst, np.array([0.5, 0.5]), self.BETA)
        # F = q0 (1 - q1 a) + q1 (1 - q0) with a = w[1, 0]; w[0, 1] = 1.
        a = 1e11 / (1e11 + 1.0)
        np.testing.assert_allclose(grad, [0.5 * (1 - a)] * 2, rtol=1e-6)

    def test_finite_entries_keep_direct_form(self):
        """Only overflowing entries take the rewritten form."""
        from repro.fading.success import Theorem1Kernel

        inst = random_instance(7)
        kernel = Theorem1Kernel(inst, 2.5)
        t = 2.5 * inst.gains
        w = t / (t + inst.signal[None, :])
        np.fill_diagonal(w, 0.0)
        lf = np.log(inst.signal[None, :]) - np.log(t + inst.signal[None, :])
        np.fill_diagonal(lf, 0.0)
        assert kernel.weights.tobytes() == w.tobytes()
        assert kernel.log_factors.tobytes() == lf.tobytes()
