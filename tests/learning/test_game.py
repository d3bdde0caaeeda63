"""Tests for the capacity game engine."""

import numpy as np
import pytest

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import paper_random_network
from repro.learning.exp3 import Exp3Learner
from repro.learning.game import CapacityGame
from repro.learning.rwm import RWMLearner
from repro.learning.rwm_bank import UNIFORM_BLOCK

BETA = 0.5


@pytest.fixture
def instance():
    s, r = paper_random_network(
        20, rng=77, min_length=0.0, max_length=100.0
    )
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.1, 0.0)


class TestGameMechanics:
    def test_result_shapes(self, instance):
        game = CapacityGame(instance, BETA, channel="nonfading", rng=0)
        res = game.play(25)
        n = instance.n
        assert res.actions.shape == (25, n)
        assert res.send_success.shape == (25, n)
        assert res.success_counts.shape == (25,)
        assert res.send_probabilities.shape == (25, n)
        assert res.num_rounds == 25 and res.n == n
        assert res.model == "nonfading" and res.beta == BETA

    def test_success_counts_consistent(self, instance):
        game = CapacityGame(instance, BETA, channel="nonfading", rng=1)
        res = game.play(20)
        np.testing.assert_array_equal(
            res.success_counts, (res.actions & res.send_success).sum(axis=1)
        )

    def test_nonfading_counterfactual_correct(self, instance):
        """send_success[t, i] must equal the deterministic SINR test with
        i forced active and others as played."""
        game = CapacityGame(instance, BETA, channel="nonfading", rng=2)
        res = game.play(10)
        for t in range(10):
            for i in range(instance.n):
                pattern = res.actions[t].copy()
                pattern[i] = True
                expected = bool(instance.successes(pattern, BETA)[i])
                assert bool(res.send_success[t, i]) == expected

    def test_reproducible(self, instance):
        a = CapacityGame(instance, BETA, channel="rayleigh", rng=3).play(15)
        b = CapacityGame(instance, BETA, channel="rayleigh", rng=3).play(15)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.send_success, b.send_success)

    def test_custom_learners(self, instance):
        learners = [Exp3Learner(rng=i) for i in range(instance.n)]
        game = CapacityGame(instance, BETA, channel="nonfading", rng=4)
        res = game.play(10, learners=learners)
        assert res.num_rounds == 10
        assert all(l.t == 10 for l in learners)

    def test_learner_count_mismatch(self, instance):
        game = CapacityGame(instance, BETA, rng=5)
        with pytest.raises(ValueError):
            game.play(5, learners=[RWMLearner(rng=0)])

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            CapacityGame(instance, 0.0)
        with pytest.raises(ValueError):
            CapacityGame(instance, BETA, channel="psychic")
        with pytest.raises(ValueError):
            CapacityGame(instance, BETA, rng=0).play(0)


class TestConvergence:
    def test_capacity_grows_then_stabilizes(self, instance):
        """The Figure-2 qualitative shape: later rounds beat early rounds."""
        game = CapacityGame(instance, BETA, channel="nonfading", rng=6)
        res = game.play(80)
        early = res.success_counts[:10].mean()
        late = res.success_counts[-20:].mean()
        assert late >= early

    def test_regret_per_round_shrinks(self, instance):
        game = CapacityGame(instance, BETA, channel="nonfading", rng=7)
        short = game.play(10)
        game2 = CapacityGame(instance, BETA, channel="nonfading", rng=7)
        long = game2.play(160)
        assert (
            long.realized_regret().mean() / 160
            <= short.realized_regret().mean() / 10 + 0.05
        )

    def test_lemma5_invariant_on_low_regret_runs(self, instance):
        game = CapacityGame(instance, BETA, channel="rayleigh", rng=8)
        res = game.play(120)
        X, F = res.lemma5(instance)
        eps = float(res.expected_regret(instance).max()) / 120
        assert X <= F + 1e-9
        assert F <= 2 * X + max(eps, 0.0) * instance.n + 1e-6

    def test_expected_vs_realized_regret_close(self, instance):
        """Lemma 4's phenomenon, measured."""
        game = CapacityGame(instance, BETA, channel="rayleigh", rng=9)
        T = 150
        res = game.play(T)
        gap = np.abs(res.expected_regret(instance) - res.realized_regret())
        assert float(gap.max()) <= 8.0 * np.sqrt(T * np.log(T))

    def test_rayleigh_and_nonfading_same_scale(self, instance):
        nf = CapacityGame(instance, BETA, channel="nonfading", rng=10).play(80)
        ray = CapacityGame(instance, BETA, channel="rayleigh", rng=10).play(80)
        tail_nf = nf.average_successes(20)
        tail_ray = ray.average_successes(20)
        assert tail_ray >= 0.4 * tail_nf
        assert tail_ray <= 1.6 * tail_nf + 1.0


class TestDefaultLearnersMatchScalar:
    """The default game plays a per-player-streams bank; it must be
    bit-identical to scalar RWM learners spawned from the same stream."""

    ROUNDS = UNIFORM_BLOCK + 11  # crosses the bank's uniform refill

    @pytest.mark.parametrize("weighted", [False, True], ids=["binary", "weighted"])
    @pytest.mark.parametrize(
        "channel", ["nonfading", "rayleigh", "nakagami:m=2", "block:coherence=3"]
    )
    def test_bit_identical(self, instance, channel, weighted):
        w = np.linspace(0.5, 2.0, instance.n) if weighted else None
        fast = CapacityGame(
            instance, BETA, channel=channel, rng=np.random.default_rng(21), weights=w
        ).play(self.ROUNDS)
        gen = np.random.default_rng(21)
        ref = CapacityGame(instance, BETA, channel=channel, rng=gen, weights=w).play(
            self.ROUNDS, learners=[RWMLearner(c) for c in gen.spawn(instance.n)]
        )
        for name in (
            "actions", "send_success", "success_counts", "send_probabilities"
        ):
            np.testing.assert_array_equal(getattr(fast, name), getattr(ref, name))
        if weighted:
            np.testing.assert_array_equal(fast.weighted_values, ref.weighted_values)
        else:
            assert fast.weighted_values is None and ref.weighted_values is None
