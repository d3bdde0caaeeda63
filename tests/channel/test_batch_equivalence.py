"""Cached and batched hot paths must agree with their per-call forms.

The perf work of this layer caches derived tensors (Theorem-1 log
factors, the non-fading ``β·S̄`` margin test) and adds batched
counterfactual kernels.  These tests pin the contract: exact kernels are
byte-identical to the per-call path; sampled kernels either consume the
identical random stream (and so match exactly under a fixed seed) or are
checked statistically where only the marginal law is preserved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.channel import (
    BlockFadingChannel,
    MonteCarloChannel,
    NonFadingChannel,
    RayleighChannel,
)
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.fading.models import NakagamiFading
from repro.fading.success import (
    Theorem1Kernel,
    success_probability_conditional,
    success_probability_conditional_batch,
)
from repro.geometry.placement import paper_random_network
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry

N = 24
BETA = 2.0
BATCH = 64


@pytest.fixture(scope="module")
def instance() -> SINRInstance:
    s, r = paper_random_network(N, rng=11)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


@pytest.fixture()
def patterns() -> np.ndarray:
    return np.random.default_rng(5).random((BATCH, N)) < 0.4


class TestTheorem1KernelCache:
    def test_conditional_matches_module_function(self, instance):
        q = np.random.default_rng(0).random(N)
        kern = Theorem1Kernel(instance, BETA)
        np.testing.assert_array_equal(
            kern.conditional(q), success_probability_conditional(instance, q, BETA)
        )

    def test_cached_tensors_are_reused(self, instance):
        kern = Theorem1Kernel(instance, BETA)
        assert kern.log_factors is kern.log_factors
        assert kern.weights is kern.weights

    def test_reuse_through_the_operator_cache_counts_as_a_hit(self, instance):
        q = np.random.default_rng(0).random(N)
        kern = Theorem1Kernel(instance, BETA)
        reg = MetricsRegistry()
        previous = obs.install(Telemetry(metrics=reg))
        try:
            kern.conditional(q)
            kern.conditional(q)
        finally:
            obs.install(previous)
        assert reg.counters["theorem1.cache_misses"] == 1
        assert reg.counters["theorem1.cache_hits"] == 1

    def test_binary_path_matches_product_path(self, instance):
        mask = np.random.default_rng(1).random(N) < 0.5
        kern = Theorem1Kernel(instance, BETA)
        np.testing.assert_allclose(
            kern.conditional_binary(mask),
            kern.conditional(mask.astype(np.float64)),
            rtol=1e-12,
        )

    def test_batch_matches_per_row(self, instance, patterns):
        batch = success_probability_conditional_batch(instance, patterns, BETA)
        kern = Theorem1Kernel(instance, BETA)
        for t in range(BATCH):
            np.testing.assert_allclose(
                batch[t], kern.conditional_binary(patterns[t]), rtol=1e-12
            )


class TestNonFadingBatch:
    def test_counterfactual_matches_division_form(self, instance):
        """The cached margin test must equal the per-call SINR division."""
        ch = NonFadingChannel(instance, BETA)
        gen = np.random.default_rng(2)
        for _ in range(20):
            mask = gen.random(N) < 0.5
            diag = instance.signal
            interference = mask.astype(np.float64) @ instance.gains - mask * diag
            denom = interference + instance.noise
            with np.errstate(divide="ignore"):
                sinr = np.where(
                    denom > 0.0, diag / np.maximum(denom, 1e-300), np.inf
                )
            np.testing.assert_array_equal(ch.counterfactual(mask), sinr >= BETA)

    def test_counterfactual_batch_matches_loop(self, instance, patterns):
        ch = NonFadingChannel(instance, BETA)
        batch = ch.counterfactual_batch(patterns)
        rows = np.stack([ch.counterfactual(p) for p in patterns])
        np.testing.assert_array_equal(batch, rows)


class TestRayleighBatch:
    def test_realize_batch_matches_loop_stream(self, instance, patterns):
        """Batch and loop consume the same uniforms in the same order."""
        ch = RayleighChannel(instance, BETA)
        batch = ch.realize_batch(patterns, np.random.default_rng(7))
        gen = np.random.default_rng(7)
        rows = np.stack([ch.realize(p, gen) for p in patterns])
        np.testing.assert_array_equal(batch, rows)

    def test_counterfactual_batch_matches_loop_stream(self, instance, patterns):
        ch = RayleighChannel(instance, BETA)
        batch = ch.counterfactual_batch(patterns, np.random.default_rng(8))
        gen = np.random.default_rng(8)
        rows = np.stack([ch.counterfactual(p, gen) for p in patterns])
        np.testing.assert_array_equal(batch, rows)

    def test_cached_channel_matches_fresh_channel(self, instance):
        """A long-lived channel (warm cache) and per-call fresh channels
        (cold cache) must produce identical realisations."""
        warm = RayleighChannel(instance, BETA)
        gen_a = np.random.default_rng(9)
        gen_b = np.random.default_rng(9)
        mask = np.random.default_rng(10).random(N) < 0.5
        for _ in range(10):
            a = warm.realize(mask, gen_a)
            b = RayleighChannel(instance, BETA).realize(mask, gen_b)
            np.testing.assert_array_equal(a, b)


class TestMonteCarloBatch:
    def test_counterfactual_batch_marginals(self, instance):
        """The CRN batch kernel preserves per-link marginals (the joint
        within-slot law differs by design)."""
        ch = MonteCarloChannel(instance, BETA, NakagamiFading(2.0))
        mask = np.zeros(N, dtype=bool)
        mask[: N // 2] = True
        slots = 4000
        pats = np.broadcast_to(mask, (slots, N))
        batch_freq = ch.counterfactual_batch(
            pats, np.random.default_rng(12)
        ).mean(axis=0)
        gen = np.random.default_rng(13)
        loop_freq = np.stack(
            [ch.counterfactual(mask, gen) for _ in range(slots)]
        ).mean(axis=0)
        sigma = np.sqrt(np.maximum(loop_freq * (1 - loop_freq), 1e-4) / slots)
        assert np.all(np.abs(batch_freq - loop_freq) < 5 * sigma)


class TestBlockFadingBatch:
    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_realize_batch_bit_identical_to_loop(self, instance, patterns, L):
        a = BlockFadingChannel(instance, BETA, block_length=L)
        b = BlockFadingChannel(instance, BETA, block_length=L)
        batch = a.realize_batch(patterns, np.random.default_rng(14))
        gen = np.random.default_rng(14)
        rows = np.stack([b.realize(p, gen) for p in patterns])
        np.testing.assert_array_equal(batch, rows)
        assert a.time == b.time == BATCH

    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_counterfactual_batch_bit_identical_to_loop(
        self, instance, patterns, L
    ):
        a = BlockFadingChannel(instance, BETA, block_length=L)
        b = BlockFadingChannel(instance, BETA, block_length=L)
        batch = a.counterfactual_batch(patterns, np.random.default_rng(15))
        gen = np.random.default_rng(15)
        rows = np.stack([b.counterfactual(p, gen) for p in patterns])
        np.testing.assert_array_equal(batch, rows)

    def test_chunks_respect_mid_block_start(self, instance, patterns):
        """A batch starting mid-block must reuse the live draw until the
        boundary, exactly like stepping would."""
        L = 5
        a = BlockFadingChannel(instance, BETA, block_length=L)
        b = BlockFadingChannel(instance, BETA, block_length=L)
        gen_a = np.random.default_rng(16)
        gen_b = np.random.default_rng(16)
        for p in patterns[:3]:
            a.realize(p, gen_a)
            b.realize(p, gen_b)
        batch = a.realize_batch(patterns[3:], gen_a)
        rows = np.stack([b.realize(p, gen_b) for p in patterns[3:]])
        np.testing.assert_array_equal(batch, rows)


class TestBaseFallbacks:
    def _stripped_channel(self, instance):
        """A channel exercising only the ABC's default batch fallbacks."""

        class Stripped(RayleighChannel):
            def realize_batch(self, patterns, rng=None):
                return super(RayleighChannel, self).realize_batch(patterns, rng)

            def counterfactual_batch(self, patterns, rng=None):
                return super(RayleighChannel, self).counterfactual_batch(
                    patterns, rng
                )

            def sinr_batch(self, patterns, rng=None):
                return None

        return Stripped(instance, BETA)

    def test_realize_fallback_uses_single_spawned_stream(self, instance, patterns):
        """The documented order: one child stream, rows realized in order."""
        ch = self._stripped_channel(instance)
        out = ch.realize_batch(patterns, np.random.default_rng(17))
        stream = np.random.default_rng(17).spawn(1)[0]
        rows = np.stack([ch.realize(p, stream) for p in patterns])
        np.testing.assert_array_equal(out, rows)

    def test_realize_fallback_advances_parent_once(self, instance, patterns):
        """The caller's generator advances by exactly one spawn, however
        large the batch is."""
        gen = np.random.default_rng(18)
        self._stripped_channel(instance).realize_batch(patterns, gen)
        probe = gen.random()
        ref = np.random.default_rng(18)
        ref.spawn(1)
        assert probe == ref.random()

    def test_counterfactual_fallback_loops_callers_generator(
        self, instance, patterns
    ):
        ch = self._stripped_channel(instance)
        out = ch.counterfactual_batch(patterns, np.random.default_rng(19))
        gen = np.random.default_rng(19)
        rows = np.stack([ch.counterfactual(p, gen) for p in patterns])
        np.testing.assert_array_equal(out, rows)
