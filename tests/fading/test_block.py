"""Block fading per fading family, on :class:`repro.channel.BlockFadingChannel`.

The channel's mechanics (coherence, reset, batches equal to stepping,
transformed steps equal to their slot loop) are pinned in
``tests/channel/test_block.py`` and ``test_batch_equivalence.py``; these
tests check what block coherence does to each fading family's outcomes.
"""

import numpy as np
import pytest

from repro.channel import BlockFadingChannel
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.fading.models import NakagamiFading, NoFading
from repro.fading.success import success_probability
from repro.geometry.placement import paper_random_network

BETA = 2.5


@pytest.fixture
def instance():
    s, r = paper_random_network(20, rng=66)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


def _repeat(active, slots: int) -> np.ndarray:
    return np.tile(active, (slots, 1))


class TestChannelMechanics:
    def test_time_advances(self, instance):
        ch = BlockFadingChannel(instance, BETA, block_length=3)
        gen = np.random.default_rng(0)
        active = np.ones(instance.n, dtype=bool)
        for expected_t in range(1, 7):
            ch.realize(active, gen)
            assert ch.time == expected_t

    def test_within_block_identical_channel(self, instance):
        """Same pattern, same block → identical outcomes (channel frozen)."""
        ch = BlockFadingChannel(instance, BETA, block_length=4)
        gen = np.random.default_rng(1)
        active = np.ones(instance.n, dtype=bool)
        first = ch.realize(active, gen)
        for _ in range(3):  # remaining slots of the block
            np.testing.assert_array_equal(ch.realize(active, gen), first)

    def test_between_blocks_channel_redraws(self, instance):
        ch = BlockFadingChannel(instance, BETA, block_length=2)
        gen = np.random.default_rng(2)
        active = np.ones(instance.n, dtype=bool)
        outcomes = [tuple(ch.realize(active, gen)) for _ in range(40)]
        # Consecutive blocks of 2 are equal internally...
        assert all(outcomes[2 * k] == outcomes[2 * k + 1] for k in range(20))
        # ...but the channel varies across blocks.
        assert len(set(outcomes)) > 1

    def test_block_length_one_matches_iid_marginals(self, instance):
        """L = 1 is the paper's model: per-link frequency matches Theorem 1."""
        active = np.zeros(instance.n, dtype=bool)
        active[:8] = True
        ch = BlockFadingChannel(instance, BETA, block_length=1)
        trials = 4000
        hits = ch.realize_batch(_repeat(active, trials), np.random.default_rng(3)).sum(axis=0)
        expected = success_probability(instance, active.astype(float), BETA)
        freq = hits / trials
        band = 5.0 * np.sqrt(expected * (1 - expected) / trials) + 8.0 / trials
        assert np.all(np.abs(freq - expected) <= band)

    def test_marginals_independent_of_block_length(self, instance):
        """Correlation changes joint behaviour, not per-slot marginals."""
        active = np.zeros(instance.n, dtype=bool)
        active[:8] = True
        trials = 4000
        means = []
        for L in (1, 8):
            ch = BlockFadingChannel(instance, BETA, block_length=L)
            out = ch.realize_batch(_repeat(active, trials), np.random.default_rng(4))
            means.append(out.sum(axis=1).mean())
        assert means[0] == pytest.approx(means[1], abs=0.4)

    def test_works_with_other_families(self, instance):
        ch = BlockFadingChannel(instance, BETA, block_length=2, model=NakagamiFading(4.0))
        out = ch.realize_batch(
            _repeat(np.ones(instance.n, dtype=bool), 6), np.random.default_rng(5)
        )
        assert out.shape == (6, instance.n)

    def test_nofading_blocks_are_deterministic(self, instance):
        ch = BlockFadingChannel(instance, BETA, block_length=1, model=NoFading())
        gen = np.random.default_rng(6)
        active = np.ones(instance.n, dtype=bool)
        det = instance.successes(active, BETA)
        for _ in range(3):
            np.testing.assert_array_equal(ch.realize(active, gen), det)

    @pytest.mark.parametrize("L", [1, 3, 7])
    def test_chunked_run_bit_identical_to_stepping(self, instance, L):
        """The block-chunked batch must consume randomness and produce
        outcomes exactly like a slot-by-slot loop — including when the
        batch starts mid-block."""
        active = np.zeros(instance.n, dtype=bool)
        active[:8] = True
        chunked = BlockFadingChannel(instance, BETA, block_length=L)
        stepped = BlockFadingChannel(instance, BETA, block_length=L)
        gc, gs = np.random.default_rng(42), np.random.default_rng(42)
        chunked.realize(active, gc)
        stepped.realize(active, gs)
        slots = 50
        out = chunked.realize_batch(_repeat(active, slots), gc)
        rows = np.stack([stepped.realize(active, gs) for _ in range(slots)])
        np.testing.assert_array_equal(out, rows)
        assert chunked.time == stepped.time == slots + 1

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            BlockFadingChannel(instance, BETA, block_length=0)
        with pytest.raises(ValueError):
            BlockFadingChannel(instance, 0.0, block_length=1)
        ch = BlockFadingChannel(instance, BETA, block_length=1)
        with pytest.raises(ValueError):
            ch.transformed_steps(np.full(instance.n, 0.5), 0, 7)
        with pytest.raises(ValueError):
            ch.transformed_step(np.full(instance.n, 0.5), 7, repeats=0)


class TestTransformedStepUnderCorrelation:
    def test_correlation_degrades_the_transformation(self, instance):
        """The Section-4 argument needs fresh channels per repeat; with the
        whole transformed step inside one coherence block the any-of-4
        success probability drops measurably."""
        q = np.full(instance.n, 0.4)
        trials = 1500
        rates = {}
        for L in (1, 4):
            ch = BlockFadingChannel(instance, BETA, block_length=L)
            masks = ch.transformed_steps(q, trials, np.random.default_rng(8))
            rates[L] = masks.sum() / trials
        assert rates[4] < rates[1]

    def test_silent_q_never_succeeds(self, instance):
        ch = BlockFadingChannel(instance, BETA, block_length=2)
        out = ch.transformed_step(np.zeros(instance.n), np.random.default_rng(9))
        assert not out.any()
