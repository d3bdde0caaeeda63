"""Tests for the generalized fading families (Nakagami, Rician)."""

import numpy as np
import pytest
from scipy import stats

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.fading.models import (
    NakagamiFading,
    NoFading,
    RayleighFading,
    RicianFading,
    _sinr_quotient,
    expected_successes_with_model,
    simulate_slots,
)
from repro.geometry.placement import paper_random_network
from repro.transform.blackbox import rayleigh_expected_binary

MEANS = np.array([[2.0, 0.5], [1.0, 3.0]])


@pytest.fixture
def instance():
    s, r = paper_random_network(25, rng=55)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


class TestMeanNormalization:
    @pytest.mark.parametrize(
        "model",
        [
            RayleighFading(),
            NakagamiFading(0.5),
            NakagamiFading(1.0),
            NakagamiFading(4.0),
            RicianFading(0.0),
            RicianFading(3.0),
            NoFading(),
        ],
    )
    def test_mean_equals_nonfading_gain(self, model):
        gen = np.random.default_rng(0)
        draws = model.sample(MEANS, gen, size=20000)
        np.testing.assert_allclose(draws.mean(axis=0), MEANS, rtol=0.05)

    @pytest.mark.parametrize(
        "model", [RayleighFading(), NakagamiFading(2.0), RicianFading(1.0)]
    )
    def test_zero_mean_gives_zero(self, model):
        gen = np.random.default_rng(1)
        draws = model.sample(np.array([[0.0]]), gen, size=50)
        assert np.all(draws == 0.0)


class TestFamilyIdentities:
    def test_nakagami_m1_is_exponential(self):
        gen = np.random.default_rng(2)
        draws = NakagamiFading(1.0).sample(np.array([[2.0]]), gen, size=6000)[:, 0, 0]
        _, p = stats.kstest(draws, "expon", args=(0.0, 2.0))
        assert p > 0.01

    def test_rician_k0_is_exponential(self):
        gen = np.random.default_rng(3)
        draws = RicianFading(0.0).sample(np.array([[2.0]]), gen, size=6000)[:, 0, 0]
        _, p = stats.kstest(draws, "expon", args=(0.0, 2.0))
        assert p > 0.01

    def test_variance_shrinks_with_m(self):
        gen = np.random.default_rng(4)
        variances = [
            NakagamiFading(m).sample(np.array([[1.0]]), gen, size=8000).var()
            for m in (0.5, 1.0, 4.0, 16.0)
        ]
        assert variances == sorted(variances, reverse=True)
        # Analytic: Var = 1/m for unit mean.
        assert variances[1] == pytest.approx(1.0, rel=0.15)

    def test_variance_shrinks_with_k(self):
        gen = np.random.default_rng(5)
        variances = [
            RicianFading(k).sample(np.array([[1.0]]), gen, size=8000).var()
            for k in (0.0, 1.0, 4.0, 16.0)
        ]
        assert variances == sorted(variances, reverse=True)

    def test_no_fading_deterministic(self):
        draws = NoFading().sample(MEANS, np.random.default_rng(6), size=3)
        for t in range(3):
            np.testing.assert_array_equal(draws[t], MEANS)

    def test_validation(self):
        with pytest.raises(ValueError):
            NakagamiFading(0.2)
        with pytest.raises(ValueError):
            NakagamiFading(0.0)
        with pytest.raises(ValueError):
            RicianFading(-1.0)

    def test_names(self):
        assert RayleighFading().name == "rayleigh"
        assert "m=2" in NakagamiFading(2.0).name
        assert "K=3" in RicianFading(3.0).name


class TestSlotSimulation:
    def test_rayleigh_model_matches_theorem1(self, instance):
        active = np.zeros(instance.n, dtype=bool)
        active[:10] = True
        beta = 2.5
        est = expected_successes_with_model(
            instance, active, beta, RayleighFading(), rng=7, num_slots=4000
        )
        exact = rayleigh_expected_binary(instance, np.flatnonzero(active), beta)
        assert est == pytest.approx(exact, abs=0.35)

    def test_nonfading_model_matches_deterministic(self, instance):
        active = np.zeros(instance.n, dtype=bool)
        active[:10] = True
        beta = 2.5
        est = expected_successes_with_model(
            instance, active, beta, NoFading(), rng=8, num_slots=10
        )
        det = int(instance.successes(active, beta)[active].sum())
        assert est == pytest.approx(det)

    def test_milder_fading_more_successes(self, instance):
        """Retention increases with Nakagami m on a feasible set."""
        from repro.capacity.greedy import greedy_capacity

        beta = 2.5
        chosen = greedy_capacity(instance, beta)
        values = [
            expected_successes_with_model(
                instance, chosen, beta, NakagamiFading(m), rng=9, num_slots=3000
            )
            for m in (1.0, 4.0, 32.0)
        ]
        assert values[0] <= values[1] + 0.3 <= values[2] + 0.6
        assert values[-1] >= 0.95 * chosen.size

    def test_silent_set(self, instance):
        out = simulate_slots(
            instance, np.zeros(instance.n, dtype=bool), 2.5, rng=10, num_slots=5,
            model=RayleighFading(),
        )
        assert not out.any()

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            simulate_slots(
                instance, np.ones(instance.n, dtype=bool), 2.5, num_slots=0,
                model=RayleighFading(),
            )

    def test_chunking(self, instance, monkeypatch):
        """A tiny chunk size must not change the full-matrix draws of an
        elementwise family, and silent links never succeed."""
        import repro.fading.models as models_mod

        active = np.zeros(instance.n, dtype=bool)
        active[:5] = True
        model = NakagamiFading(2.0)
        whole = simulate_slots(instance, active, 2.5, rng=11, num_slots=300, model=model)
        monkeypatch.setattr(models_mod, "_BLOCK_ELEMENTS", 8)  # 1 slot per chunk
        out = simulate_slots(instance, active, 2.5, rng=11, num_slots=300, model=model)
        assert out.shape == (300, instance.n)
        assert out[:, ~active].sum() == 0
        assert out.tobytes() == whole.tobytes()


class TestSINRQuotient:
    """The kernels' unmasked divide against the masked divide it replaced."""

    SIGNALS = np.array([0.0, 1e-300, 0.7, 3.5, 1e300, np.inf])
    DENOMS = np.array([0.0, 5e-324, 1e-300, 2.0, 1e300, np.inf, np.nan, -1e-20, -3.0])

    @staticmethod
    def _masked(signal, denom, where):
        out = np.zeros(denom.shape, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(signal, denom, out=out, where=where & (denom > 0.0))
        out[where & (denom <= 0.0)] = np.inf
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_same_bits_as_masked_divide(self, seed):
        gen = np.random.default_rng(seed)
        shape = (40, 25)
        if seed % 2:
            signal = gen.choice(self.SIGNALS, shape)
        else:
            signal = gen.random(shape) * 10.0 ** gen.integers(-300, 300, shape)
        denom = gen.choice(self.DENOMS, shape)
        where = gen.random(shape) < 0.4
        # Interference plus noise is never negative at a silent link.
        denom = np.where(where, denom, np.abs(denom))
        got = _sinr_quotient(signal, denom, where, np.empty(shape))
        want = self._masked(signal, denom, where)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
