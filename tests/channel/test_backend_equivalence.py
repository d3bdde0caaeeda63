"""Backend-mode equivalence across the whole channel family.

The array-backend layer makes three promises, pinned here for every
member of the channel family (non-fading, Rayleigh/Theorem-1,
Monte-Carlo, block-fading):

1. **Default byte-identity** — under ``BackendConfig()`` every routed
   kernel computes the exact NumPy float64 expression it computed before
   the shim existed (checked against hand-written reference forms).
2. **float32 tolerance** — deterministic outputs track the float64
   reference within the documented ``DTYPE_RTOL``; boolean realisations
   under a shared seed flip only where a probability sits within
   round-off of the drawn uniform (a vanishing fraction).
3. **top-k convergence** — ``k >= n - 1`` reproduces the dense result
   exactly (the operator *is* dense then); realistic ``k`` keeps the
   boolean disagreement against dense small, and the approximation is
   one-sided in the conservative direction (dropping interferers can
   only raise success probabilities).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import DTYPE_RTOL, BackendConfig
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
from repro.fading.success import Theorem1Kernel
from repro.geometry.placement import paper_random_network
from repro.run_context import run_scope

N = 40
BETA = 2.0
BATCH = 64
TOPK = 8

#: Observed boolean disagreement fractions at (N, TOPK): float32 flips
#: essentially nothing; dropping all but 8 of 39 interferers flips a few
#: percent of decisions.  The bounds leave headroom over measurements
#: (0.0 and ~0.05 respectively) without being vacuous.
FLOAT32_FLIP_BUDGET = 0.02
TOPK_FLIP_BUDGET = 0.15

CHANNELS = ["nonfading", "rayleigh", "montecarlo", "block"]


@pytest.fixture(scope="module")
def instance() -> SINRInstance:
    s, r = paper_random_network(N, rng=21)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


@pytest.fixture()
def patterns() -> np.ndarray:
    return np.random.default_rng(5).random((BATCH, N)) < 0.4


def _make_channel(name: str, instance: SINRInstance):
    if name == "nonfading":
        return NonFadingChannel(instance, BETA)
    if name == "rayleigh":
        return RayleighChannel(instance, BETA)
    if name == "montecarlo":
        return MonteCarloChannel(instance, BETA, NakagamiFading(2.0))
    if name == "block":
        return BlockFadingChannel(instance, BETA, block_length=4)
    raise AssertionError(name)


def _counterfactual(name: str, instance: SINRInstance, patterns: np.ndarray):
    """One deterministic-seed counterfactual batch under the active config.

    A fresh channel per call: operator caches are per-object, so reusing
    one channel across configs would test the cache keying instead of
    the math (the keying has its own assertions below).
    """
    ch = _make_channel(name, instance)
    return ch.counterfactual_batch(patterns, np.random.default_rng(77))


def _realize(name: str, instance: SINRInstance, patterns: np.ndarray):
    ch = _make_channel(name, instance)
    return ch.realize_batch(patterns, np.random.default_rng(78))


class TestDefaultByteIdentity:
    """The default config must reproduce the pre-shim expressions exactly."""

    def test_dense_operator_product_is_plain_matmul(self, instance, patterns):
        op = instance.gains_operator(keep_diagonal=True)
        x = patterns.astype(np.float64)
        assert op.matmul(x).tobytes() == (x @ instance.gains).tobytes()

    def test_theorem1_batch_is_the_exact_log_sum(self, instance, patterns):
        kern = Theorem1Kernel(instance, BETA)
        expected = np.exp(
            patterns.astype(np.float64) @ kern.log_factors
            - BETA * instance.noise / instance.signal
        )
        assert kern.conditional_batch(patterns).tobytes() == expected.tobytes()

    def test_nonfading_counterfactual_is_the_exact_division_form(
        self, instance, patterns
    ):
        ch = NonFadingChannel(instance, BETA)
        diag = instance.signal
        for mask in patterns[:16]:
            interference = mask.astype(np.float64) @ instance.gains - mask * diag
            denom = interference + instance.noise
            with np.errstate(divide="ignore"):
                sinr = np.where(
                    denom > 0.0, diag / np.maximum(denom, 1e-300), np.inf
                )
            np.testing.assert_array_equal(ch.counterfactual(mask), sinr >= BETA)

    @pytest.mark.parametrize("name", CHANNELS)
    def test_explicit_default_scope_changes_nothing(
        self, instance, patterns, name
    ):
        """Entering (and leaving) non-default scopes must not perturb the
        default path — operator caches are keyed by config."""
        ch = _make_channel(name, instance)
        before = ch.counterfactual_batch(patterns, np.random.default_rng(9))
        with run_scope(backend=BackendConfig(dtype="float32", topk=TOPK)):
            ch.counterfactual_batch(patterns, np.random.default_rng(9))
        after = ch.counterfactual_batch(patterns, np.random.default_rng(9))
        np.testing.assert_array_equal(before, after)


class TestFloat32Tolerance:
    def test_theorem1_probabilities_within_documented_rtol(
        self, instance, patterns
    ):
        ref = Theorem1Kernel(instance, BETA).conditional_batch(patterns)
        with run_scope(backend=BackendConfig(dtype="float32")):
            got = Theorem1Kernel(instance, BETA).conditional_batch(patterns)
        np.testing.assert_allclose(
            got, ref, rtol=DTYPE_RTOL["float32"], atol=1e-6
        )

    def test_fractional_q_within_documented_rtol(self, instance):
        q = np.random.default_rng(3).random(N)
        ref = Theorem1Kernel(instance, BETA).conditional(q)
        with run_scope(backend=BackendConfig(dtype="float32")):
            got = Theorem1Kernel(instance, BETA).conditional(q)
        np.testing.assert_allclose(
            got, ref, rtol=DTYPE_RTOL["float32"], atol=1e-6
        )

    @pytest.mark.parametrize("name", CHANNELS)
    def test_counterfactual_decisions_barely_flip(
        self, instance, patterns, name
    ):
        ref = _counterfactual(name, instance, patterns)
        with run_scope(backend=BackendConfig(dtype="float32")):
            got = _counterfactual(name, instance, patterns)
        assert np.mean(got != ref) <= FLOAT32_FLIP_BUDGET

    @pytest.mark.parametrize("name", CHANNELS)
    def test_realizations_barely_flip(self, instance, patterns, name):
        ref = _realize(name, instance, patterns)
        with run_scope(backend=BackendConfig(dtype="float32")):
            got = _realize(name, instance, patterns)
        assert np.mean(got != ref) <= FLOAT32_FLIP_BUDGET


class TestTopKEquivalence:
    def test_full_k_is_exactly_dense(self, instance, patterns):
        """``topk >= n - 1`` keeps every interferer: the operator is the
        dense one and every output byte-identical."""
        for name in CHANNELS:
            ref = _counterfactual(name, instance, patterns)
            with run_scope(backend=BackendConfig(topk=N - 1)):
                got = _counterfactual(name, instance, patterns)
            np.testing.assert_array_equal(got, ref)

    def test_truncation_is_conservative_on_probabilities(
        self, instance, patterns
    ):
        """Dropping interferers can only *raise* Theorem-1 success
        probabilities (every dropped log factor is <= 0)."""
        ref = Theorem1Kernel(instance, BETA).conditional_batch(patterns)
        with run_scope(backend=BackendConfig(topk=TOPK)):
            got = Theorem1Kernel(instance, BETA).conditional_batch(patterns)
        assert np.all(got >= ref - 1e-12)

    @pytest.mark.parametrize("name", CHANNELS)
    def test_counterfactual_disagreement_is_bounded(
        self, instance, patterns, name
    ):
        ref = _counterfactual(name, instance, patterns)
        with run_scope(backend=BackendConfig(topk=TOPK)):
            got = _counterfactual(name, instance, patterns)
        assert np.mean(got != ref) <= TOPK_FLIP_BUDGET

    @pytest.mark.parametrize("name", CHANNELS)
    def test_realize_disagreement_is_bounded(self, instance, patterns, name):
        ref = _realize(name, instance, patterns)
        with run_scope(backend=BackendConfig(topk=TOPK)):
            got = _realize(name, instance, patterns)
        assert np.mean(got != ref) <= TOPK_FLIP_BUDGET

    def test_combined_float32_topk_mode(self, instance, patterns):
        """The CLI's ``--dtype float32 --topk K`` combination: still a
        bounded perturbation of the dense float64 decisions."""
        for name in CHANNELS:
            ref = _counterfactual(name, instance, patterns)
            with run_scope(backend=BackendConfig(dtype="float32", topk=TOPK)):
                got = _counterfactual(name, instance, patterns)
            assert np.mean(got != ref) <= TOPK_FLIP_BUDGET


class TestIntegerPatternCoercion:
    """Satellite: channels accept 0/1 integer arrays as transmit patterns."""

    @pytest.mark.parametrize("name", CHANNELS)
    def test_zero_one_ints_equal_bools(self, instance, patterns, name):
        ints = patterns.astype(np.int64)
        ref = _counterfactual(name, instance, patterns)
        got = _counterfactual(name, instance, ints)
        np.testing.assert_array_equal(got, ref)

    def test_non_indicator_ints_rejected(self, instance, patterns):
        bad = patterns.astype(np.int64)
        bad[0, 0] = 2
        with pytest.raises(TypeError, match="0/1"):
            NonFadingChannel(instance, BETA).counterfactual_batch(bad)

    def test_float_patterns_still_rejected(self, instance, patterns):
        with pytest.raises(TypeError):
            NonFadingChannel(instance, BETA).counterfactual_batch(
                patterns.astype(np.float64)
            )
