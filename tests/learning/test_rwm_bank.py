"""Tests for the vectorized RWM learner bank."""

import math

import numpy as np
import pytest

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import paper_random_network
from repro.learning.game import CapacityGame
from repro.learning.rwm import RWMLearner
from repro.learning.rwm_bank import UNIFORM_BLOCK, RWMLearnerBank


class TestEquivalenceWithScalarLearner:
    def test_identical_weights_under_identical_losses(self):
        """Bank and scalar learners fed the same loss streams must hold
        identical weights and η at every step."""
        n = 7
        gen = np.random.default_rng(0)
        bank = RWMLearnerBank(n, rng=1)
        scalars = [RWMLearner(rng=2) for _ in range(n)]
        for _ in range(40):
            li = gen.random(n)
            ls = gen.random(n)
            bank.update_all(li, ls)
            for i, sc in enumerate(scalars):
                sc.update(float(li[i]), float(ls[i]))
        for i, sc in enumerate(scalars):
            assert bank.send_probabilities[i] == sc.send_probability
            assert bank.eta == sc.eta
            assert bank.t == sc.t

    def test_per_player_streams_choose_like_scalar_learners(self):
        """``from_streams`` draws each player's uniform from its own
        generator, so its actions and probabilities equal scalar
        learners' on the same streams, across uniform refills."""
        n = 5
        bank = RWMLearnerBank.from_streams(np.random.default_rng(8).spawn(n))
        scalars = [RWMLearner(g) for g in np.random.default_rng(8).spawn(n)]
        losses = np.random.default_rng(9)
        for _ in range(2 * UNIFORM_BLOCK + 3):
            np.testing.assert_array_equal(
                bank.send_probabilities, [sc.send_probability for sc in scalars]
            )
            np.testing.assert_array_equal(
                bank.choose_all(), [bool(sc.choose()) for sc in scalars]
            )
            ok = losses.random(n) < 0.5
            bank.observe_outcomes(ok)
            for sc, o in zip(scalars, ok):
                sc.observe_outcome(bool(o))

    def test_observe_outcomes_matches_loss_table(self):
        bank = RWMLearnerBank(2, rng=0)
        bank.observe_outcomes(np.array([True, False]))
        ref_ok = RWMLearner(rng=0)
        ref_ok.observe_outcome(True)
        ref_fail = RWMLearner(rng=0)
        ref_fail.observe_outcome(False)
        assert bank.send_probabilities[0] == pytest.approx(ref_ok.send_probability)
        assert bank.send_probabilities[1] == pytest.approx(ref_fail.send_probability)

    def test_loss_scaling(self):
        bank = RWMLearnerBank(2, rng=0)
        bank.observe_outcomes(np.array([False, False]), loss_scale=np.array([1.0, 0.5]))
        # The half-scaled player moved less.
        p = bank.send_probabilities
        assert p[1] > p[0]


class TestBankMechanics:
    def test_initial_uniform(self):
        bank = RWMLearnerBank(5, rng=0)
        np.testing.assert_allclose(bank.send_probabilities, 0.5)

    def test_choose_all_follows_probabilities(self):
        bank = RWMLearnerBank(4, rng=0)
        for _ in range(30):
            bank.update_all(np.ones(4), np.zeros(4))  # idle is terrible
        draws = np.mean([bank.choose_all() for _ in range(200)], axis=0)
        assert np.all(draws > 0.85)

    def test_eta_schedule(self):
        bank = RWMLearnerBank(3, rng=0)
        e0 = math.sqrt(0.5)
        for _ in range(5):
            bank.update_all(np.zeros(3), np.zeros(3))
        # Decays fired at t=3 and t=5.
        assert bank.eta == pytest.approx(e0 * 0.5)

    def test_fixed_schedule(self):
        bank = RWMLearnerBank(3, rng=0, eta=0.3, schedule="fixed")
        for _ in range(50):
            bank.update_all(np.ones(3), np.zeros(3))
        assert bank.eta == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            RWMLearnerBank(0)
        with pytest.raises(ValueError):
            RWMLearnerBank(2, eta=1.0)
        with pytest.raises(ValueError):
            RWMLearnerBank(2, schedule="warp")
        bank = RWMLearnerBank(2, rng=0)
        with pytest.raises(ValueError):
            bank.update_all(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            bank.update_all(np.full(2, 1.5), np.zeros(2))
        with pytest.raises(ValueError):
            bank.observe_outcomes(np.array([True]))
        with pytest.raises(ValueError):
            RWMLearnerBank.from_streams([])

    @pytest.mark.parametrize("which", ["idle", "send"])
    def test_nan_loss_rejected_like_scalar(self, which):
        """A NaN loss raises, as in ``RWMLearner.update``, and leaves the
        weights untouched instead of poisoning the send probability."""
        bank = RWMLearnerBank(2, rng=0)
        bad = np.array([np.nan, 0.5])
        losses = (bad, np.zeros(2)) if which == "idle" else (np.zeros(2), bad)
        with pytest.raises(ValueError):
            RWMLearner(rng=0).update(float(losses[0][0]), float(losses[1][0]))
        with pytest.raises(ValueError):
            bank.update_all(*losses)
        np.testing.assert_array_equal(bank.send_probabilities, [0.5, 0.5])
        assert bank.t == 0

    def test_no_underflow(self):
        bank = RWMLearnerBank(2, rng=0, eta=0.9, schedule="fixed")
        for _ in range(5000):
            bank.update_all(np.zeros(2), np.ones(2))
        assert np.all(np.isfinite(bank.send_probabilities))


class TestGameIntegration:
    @pytest.fixture
    def instance(self):
        s, r = paper_random_network(30, rng=5, min_length=0.0, max_length=100.0)
        return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.1, 0.0)

    def test_bank_plays_full_game(self, instance):
        game = CapacityGame(instance, 0.5, channel="rayleigh", rng=0)
        bank = RWMLearnerBank(instance.n, rng=1)
        res = game.play(50, learners=bank)
        assert res.num_rounds == 50
        assert bank.t == 50
        assert np.all(np.isfinite(res.send_probabilities))

    def test_bank_converges_like_scalars(self, instance):
        """Tail capacity with the bank matches the scalar-learner game
        within noise — same dynamics, different RNG streams."""
        beta = 0.5
        scalar_res = CapacityGame(instance, beta, channel="nonfading", rng=2).play(80)
        bank_game = CapacityGame(instance, beta, channel="nonfading", rng=2)
        bank_res = bank_game.play(80, learners=RWMLearnerBank(instance.n, rng=3))
        s_tail = scalar_res.average_successes(20)
        b_tail = bank_res.average_successes(20)
        assert b_tail == pytest.approx(s_tail, rel=0.25)

    def test_bank_with_weighted_game(self, instance):
        w = np.linspace(0.5, 2.0, instance.n)
        game = CapacityGame(instance, 0.5, channel="nonfading", rng=4, weights=w)
        res = game.play(30, learners=RWMLearnerBank(instance.n, rng=5))
        assert res.weighted_values is not None

    def test_bank_size_mismatch(self, instance):
        game = CapacityGame(instance, 0.5, rng=6)
        with pytest.raises(ValueError):
            game.play(5, learners=RWMLearnerBank(instance.n + 1, rng=7))
