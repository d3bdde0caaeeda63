"""One sampler per scheme equals both copies it replaced, byte for byte.

``repro.fading.models`` keeps one full-matrix sampler
(``simulate_sinr`` / ``simulate_slots``) and one per-sender sampler
(``simulate_sinr_patterns``), each taking the fading family as
``model`` with Rayleigh as the default.  Each scheme used to exist
twice: a Rayleigh-only copy and a ``FadingModel``-generic copy.  Both
are kept below, verbatim, as references (renamed ``ref_*``, with the
helpers they called).  Rayleigh, the default, must give the Rayleigh
copies' bytes; every family, Rayleigh included, must give the generic
copies' bytes.  Each case also checks that the generator is left where
the reference left it.

The cases stay below every chunk bound (n ≤ 60, at most 300 patterns or
slots) and reach the corners: n = 1, zero noise, links nobody hears
(infinite SINR at zero noise), senders on receivers, all-silent rows,
boolean masks and index lists, and ``counterfactual`` on and off.  They
also run under the float32 and top-k backend configs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import BackendConfig
from repro.core.sinr import SINRInstance, _as_active_bool
from repro.fading.models import (
    NakagamiFading,
    NoFading,
    RayleighFading,
    RicianFading,
    draw_unit_multipliers,
    simulate_sinr,
    simulate_sinr_patterns,
    simulate_slots,
)
from repro.run_context import run_scope
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

# ---------------------------------------------------------------------------
# Reference: the Rayleigh-only copies.
# ---------------------------------------------------------------------------

_BLOCK_ELEMENTS = 16_000_000


def ref_sample_fading_gains(instance, rng=None, size=None):
    gen = as_generator(rng)
    shape = instance.gains.shape if size is None else (int(size), *instance.gains.shape)
    # Exponential with per-entry scale: scale · Exp(1).  A zero scale gives
    # a zero draw, which is the correct degenerate channel.
    return gen.standard_exponential(shape) * instance.gains


def ref_sinr_from_draws(draws, active, noise):
    act = np.asarray(active, dtype=bool)
    diag = np.diagonal(draws, axis1=-2, axis2=-1)  # own signals, (..., n)
    total = np.einsum("...ji,...j->...i", draws, act.astype(np.float64))
    denom = total - act * diag + noise
    out = np.zeros(denom.shape, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(diag, denom, out=out, where=act & (denom > 0.0))
    out[np.broadcast_to(act, denom.shape) & (denom <= 0.0)] = np.inf
    return out


def ref_as_mask(active, n):
    arr = np.asarray(active)
    if arr.dtype != np.bool_:
        mask = np.zeros(n, dtype=bool)
        mask[arr] = True
        return mask
    if arr.shape != (n,):
        raise ValueError(f"active mask must have shape ({n},), got {arr.shape}")
    return arr


def ref_simulate_sinr(instance, active, rng=None, *, num_slots=1):
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    n = instance.n
    mask = ref_as_mask(active, n)
    idx = np.flatnonzero(mask)
    out = np.zeros((num_slots, n), dtype=np.float64)
    if idx.size == 0:
        return out
    gen = as_generator(rng)
    sub = instance.subinstance(idx)
    all_active = np.ones(idx.size, dtype=bool)
    block = max(1, _BLOCK_ELEMENTS // (idx.size * idx.size))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = ref_sample_fading_gains(sub, gen, size=t)
        out[done : done + t, idx] = ref_sinr_from_draws(draws, all_active, instance.noise)
        done += t
    return out


def ref_simulate_sinr_patterns(instance, patterns, rng=None):
    pats = np.asarray(patterns)
    if pats.dtype != np.bool_:
        raise TypeError(f"patterns must be boolean, got dtype {pats.dtype}")
    if pats.ndim != 2 or pats.shape[1] != instance.n:
        raise ValueError(
            f"patterns must have shape (T, {instance.n}), got {pats.shape}"
        )
    num_slots, n = pats.shape
    out = np.zeros((num_slots, n), dtype=np.float64)
    if num_slots == 0:
        return out
    gen = as_generator(rng)
    gains_op = instance.gains_operator(keep_diagonal=True)
    own = instance.signal  # S̄(i,i), shape (n,)
    block = max(1, _BLOCK_ELEMENTS // max(1, n))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        chunk = pats[done : done + t]
        act = chunk.astype(np.float64)
        draws = gen.standard_exponential((t, n))  # E_j per (slot, sender)
        # total[t, i] = Σ_j act_j · S̄(j, i) · E_j  — includes j = i.
        total = gains_op.matmul((act * draws).astype(gains_op.dtype, copy=False))
        signal = own * draws
        denom = total - act * signal + instance.noise
        sinr = np.zeros((t, n), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(signal, denom, out=sinr, where=chunk & (denom > 0.0))
        sinr[chunk & (denom <= 0.0)] = np.inf
        out[done : done + t] = sinr
        done += t
    return out


# ---------------------------------------------------------------------------
# Reference: the FadingModel-generic copies, and the families' draws.
# ---------------------------------------------------------------------------


def ref_sample(model, means, rng, size=None):
    """Each family's own ``sample`` body before the unit draw was
    factored out."""
    if isinstance(model, NoFading):
        if size is None:
            return means.copy()
        return np.broadcast_to(means, (int(size), *means.shape)).copy()
    shape = means.shape if size is None else (int(size), *means.shape)
    if isinstance(model, RayleighFading):
        return rng.standard_exponential(shape) * means
    if isinstance(model, NakagamiFading):
        return rng.gamma(model.m, 1.0 / model.m, size=shape) * means
    k = model.k_factor
    sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
    los = np.sqrt(k / (k + 1.0))
    re = los + rng.normal(0.0, sigma, size=shape)
    im = rng.normal(0.0, sigma, size=shape)
    return (re * re + im * im) * means


def ref_draw_unit_multipliers(model, n, rng, num_slots):
    gen = as_generator(rng)
    unit = np.ones(n, dtype=np.float64)
    if num_slots <= 0:
        return np.zeros((0, n), dtype=np.float64)
    if model.elementwise_draws:
        return model.sample(unit, gen, size=num_slots)
    return np.concatenate(
        [model.sample(unit, gen, size=1) for _ in range(num_slots)], axis=0
    )


def ref_sinr_from_unit_multipliers(instance, patterns, draws, *, counterfactual=False):
    chunk = np.asarray(patterns)
    t, n = chunk.shape
    gains_op = instance.gains_operator(keep_diagonal=True)
    own = instance.signal
    act = chunk.astype(np.float64)
    # includes j = i when i is active
    total = gains_op.matmul((act * draws).astype(gains_op.dtype, copy=False))
    signal = own * draws
    denom = total - act * signal + instance.noise
    where = np.ones_like(chunk) if counterfactual else chunk
    sinr = np.zeros((t, n), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(signal, denom, out=sinr, where=where & (denom > 0.0))
    sinr[where & (denom <= 0.0)] = np.inf
    return sinr


def ref_simulate_sinr_patterns_with_model(
    instance, patterns, model, rng=None, *, counterfactual=False
):
    pats = np.asarray(patterns)
    if pats.dtype != np.bool_:
        raise TypeError(f"patterns must be boolean, got dtype {pats.dtype}")
    if pats.ndim != 2 or pats.shape[1] != instance.n:
        raise ValueError(f"patterns must have shape (T, {instance.n}), got {pats.shape}")
    num_slots, n = pats.shape
    out = np.zeros((num_slots, n), dtype=np.float64)
    if num_slots == 0:
        return out
    gen = as_generator(rng)
    # Same CRN kernel as the Rayleigh fast path: the product includes the
    # own-signal term, so the operator keeps the exact diagonal in top-k
    # mode; the default config wraps `instance.gains` byte-identically.
    unit = np.ones(n, dtype=np.float64)
    block = max(1, 12_000_000 // max(1, n))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = model.sample(unit, gen, size=t)  # F_j per (slot, sender)
        out[done : done + t] = ref_sinr_from_unit_multipliers(
            instance, pats[done : done + t], draws, counterfactual=counterfactual
        )
        done += t
    return out


def ref_simulate_slots_with_model(instance, active, beta, model, rng=None, *, num_slots=1):
    check_positive(beta, "beta")
    if num_slots <= 0:
        raise ValueError(f"num_slots must be positive, got {num_slots}")
    mask = _as_active_bool(active, instance.n)
    out = np.zeros((num_slots, instance.n), dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return out
    gen = as_generator(rng)
    sub = instance.subinstance(idx)
    all_active = np.ones(idx.size, dtype=bool)
    # Chunk long runs so the (T, k, k) draw tensor stays ~100 MB.
    block = max(1, 12_000_000 // max(1, idx.size * idx.size))
    done = 0
    while done < num_slots:
        t = min(block, num_slots - done)
        draws = model.sample(sub.gains, gen, size=t)
        sinr = ref_sinr_from_draws(draws, all_active, instance.noise)
        out[done : done + t, idx] = sinr >= beta
        done += t
    return out


def assert_same_array(out, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def assert_same_stream(gen, gen_ref):
    assert gen.bit_generator.state == gen_ref.bit_generator.state
    assert gen.random() == gen_ref.random()


def _generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

FAMILIES = [
    RayleighFading(),
    NakagamiFading(0.5),
    NakagamiFading(2.5),
    RicianFading(0.0),
    RicianFading(3.0),
    NoFading(),
]
FAMILY_IDS = [m.name for m in FAMILIES]
BACKEND_MODES = [BackendConfig(dtype="float32"), BackendConfig(topk=4)]
BACKEND_IDS = ["float32", "topk4"]


@st.composite
def instances(draw, max_n=60):
    """Instances covering the degenerate corners."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["geometric", "matrix", "isolated"]))
    noise = draw(st.sampled_from([0.0, 4e-7]))
    colocated = draw(st.sampled_from([0.0, 0.2]))
    gen = np.random.default_rng(seed)
    if kind == "geometric":
        side = 1000.0 * np.sqrt(n / 100.0)
        recv = gen.uniform(0.0, side, (n, 2))
        angle = gen.uniform(0.0, 2.0 * np.pi, n)
        length = gen.uniform(20.0, 40.0, n)
        send = recv + length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        for i in np.flatnonzero(gen.random(n) < colocated):
            # Sender i on receiver src (its own receiver when src == i).
            send[i] = recv[int(gen.integers(n))]
        d = np.linalg.norm(send[:, None, :] - recv[None, :, :], axis=2)
        gains = 2.0 / np.maximum(d, 1e-3) ** 2.2
    elif kind == "matrix":
        gains = gen.lognormal(0.0, 2.0, (n, n)) * 1e-6
        gains[np.diag_indices(n)] *= n
    else:
        # No link hears another: with ν = 0 every transmission has an
        # infinite SINR.
        gains = np.diag(gen.uniform(0.5, 2.0, n))
    return SINRInstance(gains, noise)


@st.composite
def pattern_batches(draw, n):
    """``(T, n)`` boolean patterns, T in 0..300, with all-silent rows."""
    t = draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]))
    gen = np.random.default_rng(seed)
    pats = gen.random((t, n)) < density
    pats[gen.random(t) < 0.1] = False
    return pats


@st.composite
def actives(draw, n):
    """A fixed pattern: a boolean mask (possibly all silent) or a
    non-empty index list (unsorted, possibly with repeats)."""
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        return gen.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    size = draw(st.integers(1, n))
    return gen.integers(0, n, size).tolist()


@st.composite
def pattern_cases(draw):
    inst = draw(instances())
    return inst, draw(pattern_batches(inst.n)), draw(st.integers(0, 10**6))


@st.composite
def slot_cases(draw):
    inst = draw(instances())
    active = draw(actives(inst.n))
    num_slots = draw(st.integers(1, 300))
    beta = draw(st.sampled_from([0.5, 1.0, 2.5]))
    return inst, active, num_slots, beta, draw(st.integers(0, 10**6))


# ---------------------------------------------------------------------------
# The per-sender sampler
# ---------------------------------------------------------------------------


def _check_rayleigh_patterns(inst, pats, seed):
    gen, gen_ref = _generators(seed)
    out = simulate_sinr_patterns(inst, pats, gen)
    ref = ref_simulate_sinr_patterns(inst, pats, gen_ref)
    assert_same_array(out, ref)
    assert_same_stream(gen, gen_ref)


def _check_family_patterns(inst, pats, seed, model, counterfactual):
    gen, gen_ref = _generators(seed)
    out = simulate_sinr_patterns(
        inst, pats, gen, model=model, counterfactual=counterfactual
    )
    ref = ref_simulate_sinr_patterns_with_model(
        inst, pats, model, gen_ref, counterfactual=counterfactual
    )
    assert_same_array(out, ref)
    assert_same_stream(gen, gen_ref)


class TestPerSenderSampler:
    @settings(max_examples=300, deadline=None)
    @given(case=pattern_cases())
    def test_rayleigh_default_equals_rayleigh_copy(self, case):
        _check_rayleigh_patterns(*case)

    @pytest.mark.parametrize("counterfactual", [False, True])
    @pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
    @settings(max_examples=60, deadline=None)
    @given(case=pattern_cases())
    def test_every_family_equals_generic_copy(self, model, counterfactual, case):
        _check_family_patterns(*case, model, counterfactual)

    @pytest.mark.parametrize("config", BACKEND_MODES, ids=BACKEND_IDS)
    @settings(max_examples=40, deadline=None)
    @given(case=pattern_cases(), model=st.sampled_from(FAMILIES), cf=st.booleans())
    def test_equal_under_backend_modes(self, config, case, model, cf):
        with run_scope(backend=config):
            _check_rayleigh_patterns(*case)
            _check_family_patterns(*case, model, cf)

    def test_monte_carlo_size(self):
        """The largest per-call batch the registry draws: 1,600 patterns
        at n = 100 (E4, E5 and E6 at paper scale)."""
        gen = np.random.default_rng(100)
        recv = gen.uniform(0.0, 1000.0, (100, 2))
        send = recv + gen.uniform(20.0, 40.0, (100, 1))
        d = np.linalg.norm(send[:, None, :] - recv[None, :, :], axis=2)
        inst = SINRInstance(2.0 / d**2.2, 4e-7)
        pats = gen.random((1600, 100)) < 0.3
        for seed in range(3):
            _check_rayleigh_patterns(inst, pats, seed)

    @pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 60), num_slots=st.integers(-1, 300), seed=st.integers(0, 10**6))
    def test_unit_multipliers_equal_generic_copy(self, model, n, num_slots, seed):
        gen, gen_ref = _generators(seed)
        out = draw_unit_multipliers(model, n, gen, num_slots)
        ref = ref_draw_unit_multipliers(model, n, gen_ref, num_slots)
        assert_same_array(out, ref)
        assert_same_stream(gen, gen_ref)

    def test_same_errors(self, two_link_instance):
        for bad, error in (
            (np.ones((3, 2), dtype=np.int64), TypeError),
            (np.ones((3, 3), dtype=bool), ValueError),
            (np.ones(2, dtype=bool), ValueError),
        ):
            with pytest.raises(error):
                ref_simulate_sinr_patterns(two_link_instance, bad)
            with pytest.raises(error):
                simulate_sinr_patterns(two_link_instance, bad)
            with pytest.raises(error):
                simulate_sinr_patterns(two_link_instance, bad, model=NoFading())


# ---------------------------------------------------------------------------
# The full-matrix sampler
# ---------------------------------------------------------------------------


def _check_rayleigh_slots(inst, active, num_slots, beta, seed):
    gen, gen_ref = _generators(seed)
    out = simulate_sinr(inst, active, gen, num_slots=num_slots)
    ref = ref_simulate_sinr(inst, active, gen_ref, num_slots=num_slots)
    assert_same_array(out, ref)
    assert_same_stream(gen, gen_ref)
    gen, gen_ref = _generators(seed)
    hits = simulate_slots(inst, active, beta, gen, num_slots=num_slots)
    # The Rayleigh copy's simulate_slots: its SINRs thresholded at β.
    ref_hits = ref_simulate_sinr(inst, active, gen_ref, num_slots=num_slots) >= beta
    assert_same_array(hits, ref_hits)
    assert_same_stream(gen, gen_ref)


def _check_family_slots(inst, active, num_slots, beta, seed, model):
    gen, gen_ref = _generators(seed)
    out = simulate_slots(inst, active, beta, gen, num_slots=num_slots, model=model)
    ref = ref_simulate_slots_with_model(
        inst, active, beta, model, gen_ref, num_slots=num_slots
    )
    assert_same_array(out, ref)
    assert_same_stream(gen, gen_ref)


class TestFullMatrixSampler:
    @settings(max_examples=300, deadline=None)
    @given(case=slot_cases())
    def test_rayleigh_default_equals_rayleigh_copy(self, case):
        _check_rayleigh_slots(*case)

    @pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
    @settings(max_examples=60, deadline=None)
    @given(case=slot_cases())
    def test_every_family_equals_generic_copy(self, model, case):
        _check_family_slots(*case, model)

    @pytest.mark.parametrize("config", BACKEND_MODES, ids=BACKEND_IDS)
    @settings(max_examples=25, deadline=None)
    @given(case=slot_cases(), model=st.sampled_from(FAMILIES))
    def test_equal_under_backend_modes(self, config, case, model):
        with run_scope(backend=config):
            _check_rayleigh_slots(*case)
            _check_family_slots(*case, model)

    def test_same_errors(self, two_link_instance):
        with pytest.raises(ValueError):
            ref_simulate_sinr(two_link_instance, [True, True], num_slots=0)
        with pytest.raises(ValueError):
            simulate_sinr(two_link_instance, [True, True], num_slots=0)
        for beta, num_slots in ((0.0, 1), (1.0, 0)):
            with pytest.raises(ValueError):
                ref_simulate_slots_with_model(
                    two_link_instance, [0], beta, NoFading(), num_slots=num_slots
                )
            with pytest.raises(ValueError):
                simulate_slots(
                    two_link_instance, [0], beta, num_slots=num_slots, model=NoFading()
                )


# ---------------------------------------------------------------------------
# The families' draws
# ---------------------------------------------------------------------------


class TestFamilySample:
    @pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 12), min_size=1, max_size=2),
        size=st.one_of(st.none(), st.integers(1, 20)),
        zeros=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_sample_equals_family_body(self, model, shape, size, zeros, seed):
        """``sample`` is the unit draw times the means: each family's
        own scaling line gave the same bytes."""
        means = np.random.default_rng(seed).lognormal(0.0, 2.0, shape)
        if zeros:
            means[..., 0] = 0.0
        gen, gen_ref = _generators(seed)
        out = model.sample(means, gen, size)
        ref = ref_sample(model, means, gen_ref, size)
        assert_same_array(out, ref)
        assert_same_stream(gen, gen_ref)
