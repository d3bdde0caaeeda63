"""Tests for the slot-level Rayleigh simulation: the samplers of
:mod:`repro.fading.models` at their Rayleigh default, and the Bernoulli
fast path of :class:`repro.channel.RayleighChannel` they validate."""

import numpy as np
import pytest
from scipy import stats

from repro.channel.rayleigh import RayleighChannel
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.fading import models
from repro.fading.models import (
    NakagamiFading,
    RayleighFading,
    simulate_sinr,
    simulate_sinr_patterns,
    simulate_slots,
)
from repro.fading.success import success_probability
from repro.geometry.placement import paper_random_network


def sample_gains(instance, seed, size=None):
    """Rayleigh draws ``S(j,i) ~ Exp(S̄(j,i))`` of every ordered pair."""
    return RayleighFading().sample(instance.gains, np.random.default_rng(seed), size)


def bernoulli_slots(instance, active, beta, seed, num_slots):
    """The fast path: ``num_slots`` slots of one fixed pattern, sampled
    as independent Bernoullis with the Theorem-1 probabilities."""
    patterns = np.tile(np.asarray(active, dtype=bool), (num_slots, 1))
    return RayleighChannel(instance, beta).realize_batch(patterns, seed)


class TestSampling:
    def test_shapes(self, two_link_instance):
        assert sample_gains(two_link_instance, 0).shape == (2, 2)
        assert sample_gains(two_link_instance, 0, size=5).shape == (5, 2, 2)

    def test_exponential_means(self, two_link_instance):
        draws = sample_gains(two_link_instance, 1, size=20000)
        np.testing.assert_allclose(
            draws.mean(axis=0), two_link_instance.gains, rtol=0.05
        )

    def test_exponential_distribution_ks(self):
        """Kolmogorov–Smirnov: draws for one entry follow Exp(mean)."""
        inst = SINRInstance(np.array([[2.0]]), noise=0.0)
        draws = sample_gains(inst, 2, size=5000)[:, 0, 0]
        _, pvalue = stats.kstest(draws, "expon", args=(0.0, 2.0))
        assert pvalue > 0.01

    def test_zero_mean_entry_zero_draws(self):
        inst = SINRInstance(np.array([[1.0, 0.0], [0.0, 1.0]]), noise=0.0)
        draws = sample_gains(inst, 3, size=100)
        assert np.all(draws[:, 0, 1] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2012])
    @pytest.mark.parametrize("size", [None, 1, 4, 64])
    def test_same_bytes_as_scaled_exponential(self, seed, size):
        """The draws are ``Exp(1)`` scaled by the means, byte for byte
        what ``exponential(1.0, size=shape) * means`` gives."""
        s, r = paper_random_network(60, rng=seed)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        shape = inst.gains.shape if size is None else (size, *inst.gains.shape)
        old = np.random.default_rng(seed).exponential(1.0, size=shape) * inst.gains
        model = RayleighFading().sample(inst.gains, np.random.default_rng(seed), size)
        assert model.tobytes() == old.tobytes()

    def test_independent_across_slots(self):
        inst = SINRInstance(np.array([[1.0]]), noise=0.0)
        draws = sample_gains(inst, 4, size=2000)[:, 0, 0]
        corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(corr) < 0.1


class TestSimulateSinr:
    def test_silent_links_zero(self, two_link_instance):
        out = simulate_sinr(two_link_instance, [True, False], rng=0, num_slots=4)
        assert out.shape == (4, 2)
        assert np.all(out[:, 1] == 0.0)
        assert np.all(out[:, 0] > 0.0)

    def test_nobody_transmits(self, two_link_instance):
        out = simulate_sinr(two_link_instance, [False, False], rng=0, num_slots=3)
        assert np.all(out == 0.0)

    def test_sinr_definition_respected(self):
        """γ^R = S_ii / (Σ S_ji + ν) — mean over slots must match the
        analytic expectation of the ratio to within MC error for a
        noise-dominated single link (where it is exponential/const)."""
        inst = SINRInstance(np.array([[3.0]]), noise=1.5)
        out = simulate_sinr(inst, [True], rng=5, num_slots=20000)[:, 0]
        # SINR = Exp(3)/1.5, mean 2.
        assert out.mean() == pytest.approx(2.0, rel=0.05)

    def test_invalid_num_slots(self, two_link_instance):
        with pytest.raises(ValueError):
            simulate_sinr(two_link_instance, [True, True], rng=0, num_slots=0)


class TestInputPolicy:
    """Both full-matrix samplers read ``active`` through
    :func:`repro.core.sinr._as_active_bool`, for every fading family."""

    def test_negative_index_rejected(self, three_link_instance):
        with pytest.raises(IndexError):
            simulate_sinr(three_link_instance, [0, -1], rng=0)

    def test_empty_index_list_is_silence(self, three_link_instance):
        out = simulate_sinr(three_link_instance, [], rng=0, num_slots=2)
        assert out.shape == (2, 3)
        assert not out.any()

    def test_slots_share_the_policy_under_nakagami(self, three_link_instance):
        model = NakagamiFading(2)
        with pytest.raises(IndexError):
            simulate_slots(three_link_instance, [0, -1], 1.0, rng=0, model=model)
        out = simulate_slots(three_link_instance, [], 1.0, rng=0, num_slots=2, model=model)
        assert out.shape == (2, 3)
        assert not out.any()


class TestSlotSimulation:
    def test_simulate_slot_mask_semantics(self, two_link_instance):
        ok = simulate_slots(two_link_instance, [True, False], beta=0.01, rng=6)[0]
        assert not ok[1]  # silent link can never succeed

    def test_frequency_matches_theorem1(self, paper_instance):
        """Explicit exponential sampling reproduces the closed form."""
        n = paper_instance.n
        active = np.zeros(n, dtype=bool)
        active[:10] = True
        beta = 2.5
        trials = 4000
        hits = simulate_slots(
            paper_instance, active, beta, rng=7, num_slots=trials
        ).sum(axis=0)
        q = active.astype(np.float64)
        expected = success_probability(paper_instance, q, beta)
        freq = hits / trials
        band = 4.0 * np.sqrt(expected * (1 - expected) / trials) + 8.0 / trials
        assert np.all(np.abs(freq - expected) <= band)

    def test_bernoulli_path_matches_theorem1(self, paper_instance):
        """The fast path has exactly the same marginals."""
        n = paper_instance.n
        active = np.zeros(n, dtype=bool)
        active[:10] = True
        beta = 2.5
        trials = 4000
        hits = bernoulli_slots(paper_instance, active, beta, 8, trials).sum(axis=0)
        expected = success_probability(paper_instance, active.astype(float), beta)
        freq = hits / trials
        band = 4.0 * np.sqrt(expected * (1 - expected) / trials) + 8.0 / trials
        assert np.all(np.abs(freq - expected) <= band)

    def test_explicit_and_bernoulli_distributions_agree(self, paper_instance):
        """Joint success *counts* per slot have the same distribution in
        both paths (successes are independent across links given the
        pattern) — compare count histograms with a chi-square-ish bound."""
        n = paper_instance.n
        active = np.zeros(n, dtype=bool)
        active[:12] = True
        beta = 2.5
        trials = 3000
        counts_a = simulate_slots(
            paper_instance, active, beta, rng=9, num_slots=trials
        ).sum(axis=1)
        counts_b = bernoulli_slots(paper_instance, active, beta, 10, trials).sum(axis=1)
        assert abs(counts_a.mean() - counts_b.mean()) < 0.35
        assert abs(counts_a.std() - counts_b.std()) < 0.35

    def test_chunking_consistency(self, two_link_instance, monkeypatch):
        """Chunked long runs draw the same Rayleigh gains, byte for byte:
        the exponential fills element by element, and each slot's SINR
        reads only its own draws."""
        whole = simulate_sinr(two_link_instance, [True, True], rng=12, num_slots=50)
        monkeypatch.setattr(models, "_BLOCK_ELEMENTS", 8)  # 2 slots per chunk
        out = simulate_sinr(two_link_instance, [True, True], rng=12, num_slots=50)
        assert out.shape == (50, 2)
        assert np.all(out > 0.0)
        assert out.tobytes() == whole.tobytes()


class TestSimulateSinrPatterns:
    def test_shape_and_masking(self, two_link_instance):
        patterns = np.array([[True, False], [False, False], [True, True]])
        out = simulate_sinr_patterns(two_link_instance, patterns, rng=0)
        assert out.shape == (3, 2)
        assert np.all(out[~patterns] == 0.0)
        assert np.all(out[0, 0] > 0.0)
        assert np.all(out[2] > 0.0)

    def test_matches_theorem1_per_pattern(self, paper_instance):
        """Success frequencies under pattern-varying masks reproduce the
        exact law: each slot's pattern is Bernoulli(q) and the batched
        kernel's thresholded SINR must match Theorem 1's Q_i(q, β)."""
        n = paper_instance.n
        beta = 2.5
        trials = 6000
        gen = np.random.default_rng(13)
        q = np.full(n, 0.4)
        patterns = gen.random((trials, n)) < q
        sinr = simulate_sinr_patterns(paper_instance, patterns, gen)
        freq = ((sinr >= beta) & patterns).sum(axis=0) / trials
        expected = success_probability(paper_instance, q, beta)
        band = 4.0 * np.sqrt(expected * (1 - expected) / trials) + 8.0 / trials
        assert np.all(np.abs(freq - expected) <= band)

    def test_agrees_with_per_pattern_loop(self, paper_instance):
        """Statistical equivalence with the seed's loop kernel: running
        ``simulate_slots`` pattern-by-pattern and the batched kernel give
        the same per-link success frequencies up to MC noise."""
        n = paper_instance.n
        beta = 2.5
        trials = 3000
        gen = np.random.default_rng(14)
        patterns = gen.random((trials, n)) < 0.5
        sinr = simulate_sinr_patterns(paper_instance, patterns, gen)
        batched = ((sinr >= beta) & patterns).sum(axis=0) / trials

        loop_gen = np.random.default_rng(15)
        loop_hits = np.zeros(n)
        for row in patterns[:600]:  # loop kernel is slow; subsample
            loop_hits += simulate_slots(
                paper_instance, row, beta, rng=loop_gen, num_slots=1
            )[0]
        loop = loop_hits / 600
        band = 4.0 * np.sqrt(np.maximum(batched * (1 - batched), 1e-3) / 600)
        assert np.all(np.abs(batched - loop) <= band + 0.02)

    def test_chunking_consistency(self, two_link_instance, monkeypatch):
        """Same draws under any chunking; the product's rounding follows
        the chunk height, so the values agree to rounding, not bytes."""
        patterns = np.ones((40, 2), dtype=bool)
        whole = simulate_sinr_patterns(
            two_link_instance, patterns, rng=np.random.default_rng(16)
        )
        monkeypatch.setattr(models, "_BLOCK_ELEMENTS", 8)  # 4 patterns per chunk
        chunked = simulate_sinr_patterns(
            two_link_instance, patterns, rng=np.random.default_rng(16)
        )
        np.testing.assert_allclose(whole, chunked)
