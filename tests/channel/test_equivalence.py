"""Cross-channel equivalences: every member agrees where the laws coincide.

The channel layer's whole point is that consumers can swap models; these
tests pin the places where two members must produce the *same* answer —
deterministically (non-fading vs the raw SINR test, game string vs
channel object) or in distribution (Rayleigh sampling vs Theorem 1,
Nakagami ``m = 1`` vs the exact Rayleigh channel).
"""

import numpy as np
import pytest

from repro.channel import (
    MonteCarloChannel,
    NonFadingChannel,
    RayleighChannel,
)
from repro.fading.models import NakagamiFading
from repro.fading.success import success_probability_conditional
from repro.learning.game import CapacityGame
from repro.transform.blackbox import rayleigh_expected_binary

BETA = 1.0


class TestNonFadingMatchesInstance:
    """NonFadingChannel.realize ≡ SINRInstance.successes, exactly."""

    def test_realize_equals_successes(self, paper_instance, rng):
        ch = NonFadingChannel(paper_instance, BETA)
        for _ in range(20):
            mask = rng.random(paper_instance.n) < 0.4
            np.testing.assert_array_equal(
                ch.realize(mask), paper_instance.successes(mask, BETA)
            )

    def test_realize_batch_equals_rowwise(self, paper_instance, rng):
        ch = NonFadingChannel(paper_instance, BETA)
        patterns = rng.random((50, paper_instance.n)) < 0.3
        batch = ch.realize_batch(patterns)
        rows = np.stack([paper_instance.successes(p, BETA) for p in patterns])
        np.testing.assert_array_equal(batch, rows)

    def test_counterfactual_agrees_with_senders(self, paper_instance, rng):
        """For links that did send, the counterfactual IS the outcome."""
        ch = NonFadingChannel(paper_instance, BETA)
        mask = rng.random(paper_instance.n) < 0.5
        ok = ch.realize(mask)
        cf = ch.counterfactual(mask)
        np.testing.assert_array_equal(cf[mask], ok[mask])

    def test_deterministic_consumes_no_rng(self, paper_instance):
        ch = NonFadingChannel(paper_instance, BETA)
        gen = np.random.default_rng(7)
        ch.realize(np.ones(paper_instance.n, dtype=bool), gen)
        # An untouched generator produces the same stream afterwards.
        assert gen.random() == np.random.default_rng(7).random()


class TestRayleighMatchesTheorem1:
    """Sampled success frequencies sit within 3σ of the closed form."""

    SLOTS = 4000

    def test_realize_frequency_within_3_sigma(self, paper_instance):
        n = paper_instance.n
        gen = np.random.default_rng(20120625)
        mask = np.zeros(n, dtype=bool)
        mask[:: max(1, n // 12)] = True  # a sparse pattern with real successes
        ch = RayleighChannel(paper_instance, BETA)
        p_exact = np.where(
            mask,
            success_probability_conditional(paper_instance, mask.astype(float), BETA),
            0.0,
        )
        hits = np.zeros(n)
        for _ in range(self.SLOTS):
            hits += ch.realize(mask, gen)
        freq = hits / self.SLOTS
        sigma = np.sqrt(np.maximum(p_exact * (1 - p_exact), 1e-12) / self.SLOTS)
        assert np.all(np.abs(freq - p_exact) <= 3.0 * sigma + 1e-9)

    def test_realize_batch_same_law(self, paper_instance):
        n = paper_instance.n
        gen = np.random.default_rng(4)
        mask = np.zeros(n, dtype=bool)
        mask[:: max(1, n // 12)] = True
        ch = RayleighChannel(paper_instance, BETA)
        patterns = np.broadcast_to(mask, (self.SLOTS, n))
        freq = ch.realize_batch(np.ascontiguousarray(patterns), gen).mean(axis=0)
        p_exact = np.where(
            mask,
            success_probability_conditional(paper_instance, mask.astype(float), BETA),
            0.0,
        )
        sigma = np.sqrt(np.maximum(p_exact * (1 - p_exact), 1e-12) / self.SLOTS)
        assert np.all(np.abs(freq - p_exact) <= 3.0 * sigma + 1e-9)

    def test_expected_successes_matches_transform_helper(self, paper_instance):
        chosen = np.arange(0, paper_instance.n, 3)
        ch = RayleighChannel(paper_instance, BETA)
        assert ch.expected_successes(chosen) == pytest.approx(
            rayleigh_expected_binary(paper_instance, chosen, BETA)
        )


class TestNakagami1IsRayleigh:
    """Nakagami with ``m = 1`` *is* Rayleigh; the MC channel must agree
    with the exact channel's closed form statistically."""

    SLOTS = 4000

    def test_marginal_frequencies_match_closed_form(self, paper_instance):
        n = paper_instance.n
        gen = np.random.default_rng(99)
        mask = np.zeros(n, dtype=bool)
        mask[:: max(1, n // 10)] = True
        mc = MonteCarloChannel(paper_instance, BETA, NakagamiFading(1.0))
        patterns = np.ascontiguousarray(np.broadcast_to(mask, (self.SLOTS, n)))
        freq = mc.realize_batch(patterns, gen).mean(axis=0)
        p_exact = np.where(
            mask,
            success_probability_conditional(paper_instance, mask.astype(float), BETA),
            0.0,
        )
        sigma = np.sqrt(np.maximum(p_exact * (1 - p_exact), 1e-12) / self.SLOTS)
        assert np.all(np.abs(freq - p_exact) <= 4.0 * sigma + 1e-9)

    def test_success_probability_estimator_tracks_exact(self, paper_instance):
        q = np.full(paper_instance.n, 0.25)
        mc = MonteCarloChannel(paper_instance, BETA, NakagamiFading(1.0), mc_slots=4000)
        exact = RayleighChannel(paper_instance, BETA).success_probability(q)
        est = mc.success_probability(q, np.random.default_rng(5))
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / 4000)
        assert np.all(np.abs(est - exact) <= 4.0 * sigma + 5e-3)


class TestGameStringVsChannel:
    """CapacityGame(channel=str) and CapacityGame(channel=Channel) are the
    same game, byte for byte, at a fixed seed."""

    @pytest.mark.parametrize("model", ["nonfading", "rayleigh"])
    def test_identical_game_result(self, paper_instance, model):
        kind = {"nonfading": NonFadingChannel, "rayleigh": RayleighChannel}[model]
        res_str = CapacityGame(paper_instance, BETA, channel=model, rng=42).play(60)
        res_ch = CapacityGame(
            paper_instance, BETA, channel=kind(paper_instance, BETA), rng=42
        ).play(60)
        np.testing.assert_array_equal(res_str.actions, res_ch.actions)
        np.testing.assert_array_equal(res_str.send_success, res_ch.send_success)
        np.testing.assert_array_equal(res_str.success_counts, res_ch.success_counts)
        assert res_str.model == res_ch.model

    def test_spec_string_channel_also_identical(self, paper_instance):
        """The default channel is the non-fading spec string."""
        res_default = CapacityGame(paper_instance, BETA, rng=3).play(40)
        res_spec = CapacityGame(paper_instance, BETA, channel="nonfading", rng=3).play(40)
        np.testing.assert_array_equal(res_default.actions, res_spec.actions)
        np.testing.assert_array_equal(res_default.send_success, res_spec.send_success)
        assert res_default.model == "nonfading"

    def test_beta_mismatch_rejected(self, paper_instance):
        ch = RayleighChannel(paper_instance, 2.0)
        with pytest.raises(ValueError, match="threshold"):
            CapacityGame(paper_instance, BETA, channel=ch, rng=0)
