"""The stateful block-fading channel: coherence, reset, degenerate L=1."""

import numpy as np
import pytest

from repro import obs
from repro.channel import BlockFadingChannel, RayleighChannel
from repro.channel import block as block_module
from repro.channel.block import STEP_BUFFER_BYTES
from repro.fading.models import NakagamiFading, RicianFading, _sinr_from_draws
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry

BETA = 1.0


class TestCoherence:
    def test_same_block_same_draws(self, paper_instance):
        """Within one coherence block, identical patterns give identical
        outcomes — the channel draw is frozen."""
        ch = BlockFadingChannel(paper_instance, BETA, block_length=8)
        gen = np.random.default_rng(1)
        mask = np.ones(paper_instance.n, dtype=bool)
        first = ch.realize(mask, gen)
        for _ in range(7):
            np.testing.assert_array_equal(ch.realize(mask, gen), first)

    def test_blocks_refresh(self, paper_instance):
        """Across many block boundaries the outcome does change."""
        ch = BlockFadingChannel(paper_instance, BETA, block_length=2)
        gen = np.random.default_rng(2)
        mask = np.ones(paper_instance.n, dtype=bool)
        outcomes = {ch.realize(mask, gen).tobytes() for _ in range(40)}
        assert len(outcomes) > 1

    def test_reset_restarts_time(self, paper_instance):
        ch = BlockFadingChannel(paper_instance, BETA, block_length=4)
        gen = np.random.default_rng(3)
        ch.realize(np.ones(paper_instance.n, dtype=bool), gen)
        assert ch.time == 1
        ch.reset()
        assert ch.time == 0

    def test_subchannel_refuses(self, paper_instance):
        ch = BlockFadingChannel(paper_instance, BETA, block_length=4)
        with pytest.raises(NotImplementedError):
            ch.subchannel([0, 1])


class TestDegenerateL1:
    SLOTS = 4000

    def test_l1_matches_exact_rayleigh_marginals(self, paper_instance):
        """``L = 1`` with the Rayleigh family is the paper's i.i.d. model."""
        n = paper_instance.n
        mask = np.zeros(n, dtype=bool)
        mask[:: max(1, n // 10)] = True
        ch = BlockFadingChannel(paper_instance, BETA, block_length=1)
        gen = np.random.default_rng(7)
        hits = np.zeros(n)
        for _ in range(self.SLOTS):
            hits += ch.realize(mask, gen)
        freq = hits / self.SLOTS
        p_exact = np.where(
            mask,
            RayleighChannel(paper_instance, BETA).conditional_success_probability(
                mask.astype(float)
            ),
            0.0,
        )
        sigma = np.sqrt(np.maximum(p_exact * (1 - p_exact), 1e-12) / self.SLOTS)
        assert np.all(np.abs(freq - p_exact) <= 4.0 * sigma + 1e-9)

    def test_other_families_accepted(self, paper_instance):
        ch = BlockFadingChannel(
            paper_instance, BETA, block_length=3, model=NakagamiFading(2.0)
        )
        gen = np.random.default_rng(11)
        out = ch.transformed_step(np.full(paper_instance.n, 0.3), gen)
        assert out.shape == (paper_instance.n,)
        assert ch.name == "block(L=3, nakagami(m=2))"

    def test_expected_successes_stateless(self, paper_instance):
        ch = BlockFadingChannel(paper_instance, BETA, block_length=5)
        value = ch.expected_successes(np.arange(0, paper_instance.n, 4), rng=13)
        assert value >= 0.0
        assert ch.time == 0


def _step_loop(ch, q, num_steps, gen, repeats):
    """The transformed step as a slot loop: the reference
    ``transformed_steps`` must reproduce bit for bit."""
    out = np.zeros((num_steps, ch.n), dtype=bool)
    for t in range(num_steps):
        for _ in range(repeats):
            out[t] |= ch.realize(gen.random(ch.n) < q, gen)
    return out


def _redraws(fn):
    reg = MetricsRegistry()
    previous = obs.install(Telemetry(metrics=reg))
    try:
        result = fn()
    finally:
        obs.install(previous)
    return result, reg.counters.get("channel.block_redraws", 0)


class TestTransformedSteps:
    STEPS = 301  # several staging buffers at n=30; not a multiple of any L

    @pytest.mark.parametrize("family", [None, NakagamiFading(2.0)], ids=["rayleigh", "nakagami"])
    @pytest.mark.parametrize("repeats", [1, 4])
    @pytest.mark.parametrize("L", [1, 2, 3, 8])
    def test_matches_step_loop(self, paper_instance, L, repeats, family):
        n = paper_instance.n
        assert self.STEPS * repeats * n * n * 8 > 2 * STEP_BUFFER_BYTES
        q = np.linspace(0.1, 0.6, n)
        fast_ch = BlockFadingChannel(paper_instance, BETA, block_length=L, model=family)
        ref_ch = BlockFadingChannel(paper_instance, BETA, block_length=L, model=family)
        fast_gen, ref_gen = np.random.default_rng(L), np.random.default_rng(L)
        fast, fast_redraws = _redraws(
            lambda: fast_ch.transformed_steps(q, self.STEPS, fast_gen, repeats=repeats)
        )
        ref, ref_redraws = _redraws(
            lambda: _step_loop(ref_ch, q, self.STEPS, ref_gen, repeats)
        )
        np.testing.assert_array_equal(fast, ref)
        assert fast_ch.time == ref_ch.time == self.STEPS * repeats
        assert fast_redraws == ref_redraws > 0
        # The channel state (clock, current block's draws) carries over.
        mask = q > 0.3
        np.testing.assert_array_equal(
            fast_ch.realize(mask, fast_gen), ref_ch.realize(mask, ref_gen)
        )

    def test_single_step_form(self, paper_instance):
        q = np.full(paper_instance.n, 0.4)
        a = BlockFadingChannel(paper_instance, BETA, block_length=3)
        b = BlockFadingChannel(paper_instance, BETA, block_length=3)
        ga, gb = np.random.default_rng(5), np.random.default_rng(5)
        steps = np.array([a.transformed_step(q, ga, repeats=2) for _ in range(7)])
        np.testing.assert_array_equal(steps, b.transformed_steps(q, 7, gb, repeats=2))

    def test_rejects_empty_runs(self, paper_instance):
        ch = BlockFadingChannel(paper_instance, BETA, block_length=2)
        q = np.full(paper_instance.n, 0.3)
        with pytest.raises(ValueError):
            ch.transformed_steps(q, 0, 1)
        with pytest.raises(ValueError):
            ch.transformed_steps(q, 3, 1, repeats=0)
        with pytest.raises(ValueError):
            ch.transformed_step(q, 1, repeats=0)
        assert ch.time == 0


def _walk_matches_loop(instance, L, num_steps, repeats, *, family=None, prelude=0, seed=0):
    """Run ``prelude`` single-slot ``realize`` calls, then ``num_steps``
    transformed steps, on two channels: the block walk on one, the slot
    loop on the other.  Masks, clock, redraw counts and the following
    ``realize`` must all agree."""
    n = instance.n
    q = np.linspace(0.1, 0.6, n)
    mask = q > 0.3
    walk_ch = BlockFadingChannel(instance, BETA, block_length=L, model=family)
    loop_ch = BlockFadingChannel(instance, BETA, block_length=L, model=family)
    walk_gen, loop_gen = np.random.default_rng(seed), np.random.default_rng(seed)

    def run(ch, gen, steps):
        for _ in range(prelude):
            ch.realize(mask, gen)
        return steps(ch, gen)

    walk, walk_redraws = _redraws(lambda: run(
        walk_ch, walk_gen,
        lambda ch, gen: ch.transformed_steps(q, num_steps, gen, repeats=repeats),
    ))
    loop, loop_redraws = _redraws(lambda: run(
        loop_ch, loop_gen, lambda ch, gen: _step_loop(ch, q, num_steps, gen, repeats)
    ))
    np.testing.assert_array_equal(walk, loop)
    assert walk_ch.time == loop_ch.time == prelude + num_steps * repeats
    assert walk_redraws == loop_redraws > 0
    np.testing.assert_array_equal(
        walk_ch.realize(mask, walk_gen), loop_ch.realize(mask, loop_gen)
    )
    return walk_redraws


class TestBlockWalk:
    """The block walk against the slot loop where blocks and the run's
    ends do not line up."""

    @pytest.mark.parametrize("prelude", [1, 2, 5])
    def test_clock_mid_block_on_entry(self, paper_instance, prelude):
        # L = 7 leaves the clock 1, 2 or 5 slots into the first block, so
        # the walk starts on the held draw; 13 steps of 3 end mid-block.
        _walk_matches_loop(paper_instance, 7, 13, 3, prelude=prelude)

    @pytest.mark.parametrize("prelude", [0, 3])
    def test_block_longer_than_the_run(self, paper_instance, prelude):
        redraws = _walk_matches_loop(paper_instance, 1000, 9, 4, prelude=prelude)
        assert redraws == 1

    def test_partial_last_block_after_whole_groups(self, paper_instance, monkeypatch):
        # 97 steps of 4 slots are 388 slots: 77 whole blocks of 5, staged
        # ten to a group, then a last block of 3 slots.
        n = paper_instance.n
        monkeypatch.setattr(block_module, "STEP_BUFFER_BYTES", 10 * 8 * n * (n + 5))
        redraws = _walk_matches_loop(paper_instance, 5, 97, 4)
        assert redraws == 78

    def test_block_longer_than_the_staging_buffer(self, paper_instance, monkeypatch):
        # Ten staged rows per piece: each 25-slot block is walked in three
        # pieces against one draw, entering and leaving mid-block.
        monkeypatch.setattr(block_module, "STEP_BUFFER_BYTES", 10 * 8 * paper_instance.n)
        _walk_matches_loop(paper_instance, 25, 31, 3, prelude=4)

    @pytest.mark.parametrize("L", [1, 3])
    def test_rician_draws_whole_fields(self, paper_instance, L):
        assert RicianFading.elementwise_draws is False
        _walk_matches_loop(
            paper_instance, L, 41, 4, family=RicianFading(3.0), prelude=1
        )


class TestBroadcastSINR:
    @pytest.mark.parametrize("n", [1, 2, 30, 127, 200])
    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_block_draws_broadcast_bit_equal_to_per_slot(self, n, L):
        """One kernel call with each block's draw broadcast over its slots
        gives the bits of one call per slot."""
        gen = np.random.default_rng(n * 31 + L)
        blocks = 4
        draws = gen.standard_exponential((blocks, n, n)) * 10.0 ** gen.uniform(-9, 1, (n, n))
        masks = gen.random((blocks, L, n)) < 0.4
        got = _sinr_from_draws(draws[:, None], masks, 4e-7)
        assert got.shape == (blocks, L, n)
        for b in range(blocks):
            for slot in range(L):
                ref = _sinr_from_draws(draws[b][None], masks[b, slot], 4e-7)[0]
                np.testing.assert_array_equal(got[b, slot].view(np.uint64), ref.view(np.uint64))
