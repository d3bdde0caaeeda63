"""Algorithm 1's stacked trial equals the per-stage loop it replaced.

``simulate_rayleigh_optimum`` draws every stage's transmit patterns with
one ``gen.random((S·r, n))`` call and evaluates them as one stacked
``(S, r, n)`` SINR product.  The per-stage loop it replaced is kept
below as the reference: every case hypothesis generates must give the
same ``success``, ``best_sinr``, ``per_slot_success_counts``,
``num_slots`` and ``num_stages``, byte for byte, and leave the generator
where the loop left it.  The instances reach the corners: ``n = 1``,
zero noise, links with no interferers (infinite SINR), duplicated links
and senders sitting on another link's receiver; ``q`` includes 0 and 1,
and ``slot_block`` is the default, at least ``repeats``, or below it.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import BackendConfig, TopKGains, backend_scope
from repro.channel.spec import make_channel
from repro.core.sinr import SINRInstance, sinr_nonfading_batch
from repro.latency.slotloop import iter_slot_blocks, resolve_replay_block
from repro.transform.simulation import (
    SimulationOutcome,
    simulate_rayleigh_optimum,
    simulation_schedule,
)
from repro.utils.logstar import b_sequence
from repro.utils.rng import as_generator


# ---------------------------------------------------------------------------
# Reference: the per-stage loop the stacked trial replaced.
# ---------------------------------------------------------------------------


def ref_simulation_schedule(q, n, *, repeats, damping):
    return [(b_k, np.clip(q / (damping * b_k), 0.0, 1.0), repeats) for b_k in b_sequence(n)]


def ref_simulate(
    instance, q, beta, rng=None, *, repeats=19, damping=4.0, channel=None, slot_block=None
):
    gen = as_generator(rng)
    ch = None if channel is None else make_channel(channel, instance, beta)
    plan = ref_simulation_schedule(q, instance.n, repeats=repeats, damping=damping)
    n = instance.n
    success = np.zeros(n, dtype=bool)
    best_sinr = np.zeros(n, dtype=np.float64)
    slot_counts = []
    block = resolve_replay_block(slot_block)
    for _b_k, stage_q, reps in plan:
        for lo, hi in iter_slot_blocks(reps, block):
            patterns = gen.random((hi - lo, n)) < stage_q
            sinr = instance.sinr_batch(patterns) if ch is None else ch.sinr_batch(patterns, gen)
            if sinr is not None:
                finite_best = np.where(np.isinf(sinr), np.finfo(np.float64).max, sinr)
                best_sinr = np.maximum(best_sinr, finite_best.max(axis=0))
                hits = sinr >= beta
            else:
                hits = ch.realize_batch(patterns, gen)
            success |= hits.any(axis=0)
            slot_counts.extend(hits.sum(axis=1).tolist())
    return SimulationOutcome(
        success=success,
        best_sinr=best_sinr,
        num_slots=len(slot_counts),
        num_stages=len(plan),
        per_slot_success_counts=np.asarray(slot_counts, dtype=np.int64),
    )


def assert_same_outcome(out, ref):
    for field in ("success", "best_sinr", "per_slot_success_counts"):
        a, b = getattr(out, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert out.num_slots == ref.num_slots
    assert out.num_stages == ref.num_stages


def assert_same_stream(gen, gen_ref):
    assert gen.bit_generator.state == gen_ref.bit_generator.state
    assert gen.random() == gen_ref.random()


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@st.composite
def instances(draw, max_n=100):
    """``(instance, beta)`` pairs covering the degenerate corners."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["geometric", "matrix", "isolated"]))
    noise = draw(st.sampled_from([0.0, 4e-7]))
    beta = draw(st.sampled_from([0.5, 1.0, 2.5]))
    colocated = draw(st.sampled_from([0.0, 0.2]))
    gen = np.random.default_rng(seed)
    if kind == "geometric":
        side = 1000.0 * np.sqrt(n / 100.0)
        recv = gen.uniform(0.0, side, (n, 2))
        angle = gen.uniform(0.0, 2.0 * np.pi, n)
        length = gen.uniform(20.0, 40.0, n)
        send = recv + length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        for i in np.flatnonzero(gen.random(n) < colocated):
            src = int(gen.integers(n))
            if gen.random() < 0.5:
                # A duplicated link: both endpoints on link src's.
                send[i], recv[i] = send[src], recv[src]
            else:
                # Sender i on receiver src (its own receiver when src == i).
                send[i] = recv[src]
        d = np.linalg.norm(send[:, None, :] - recv[None, :, :], axis=2)
        gains = 2.0 / np.maximum(d, 1e-3) ** 2.2
    elif kind == "matrix":
        gains = gen.lognormal(0.0, 2.0, (n, n)) * 1e-6
        gains[np.diag_indices(n)] *= n
    else:
        # No link hears another: with ν = 0 every transmission has an
        # infinite SINR.
        gains = np.diag(gen.uniform(0.5, 2.0, n))
    return SINRInstance(gains, noise), beta


@st.composite
def probabilities(draw, n):
    """``q`` mixing exact 0s and 1s with interior values."""
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    q = gen.choice([0.0, 1.0, 0.05, 0.3, 0.9], n)
    mixed = draw(st.sampled_from([0.0, 0.5, 1.0]))
    interior = gen.random(n) < mixed
    q[interior] = gen.uniform(0.0, 1.0, int(interior.sum()))
    return q


@st.composite
def cases(draw):
    inst, beta = draw(instances())
    q = draw(probabilities(inst.n))
    repeats = draw(st.integers(1, 25))
    damping = draw(st.sampled_from([1.0, 2.0, 4.0, 8.0]))
    block = draw(
        st.one_of(
            st.none(),
            st.integers(repeats, repeats + 5),
            st.integers(1, repeats),
        )
    )
    seed = draw(st.integers(0, 10**6))
    return inst, beta, q, repeats, damping, block, seed


def _both(inst, beta, q, repeats, damping, block, seed, channel=None):
    gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    kwargs = dict(repeats=repeats, damping=damping, channel=channel, slot_block=block)
    out = simulate_rayleigh_optimum(inst, q, beta, gen, **kwargs)
    ref = ref_simulate(inst, q, beta, gen_ref, **kwargs)
    return out, ref, gen, gen_ref


# ---------------------------------------------------------------------------
# The stacked trial
# ---------------------------------------------------------------------------


class TestStackedTrial:
    @settings(max_examples=150, deadline=None)
    @given(case=cases())
    def test_equals_per_stage_loop(self, case):
        out, ref, gen, gen_ref = _both(*case)
        assert_same_outcome(out, ref)
        assert_same_stream(gen, gen_ref)

    @settings(max_examples=25, deadline=None)
    @given(case=cases())
    def test_nonfading_channel_takes_the_stacked_path(self, case):
        out, ref, gen, gen_ref = _both(*case, channel="nonfading")
        assert_same_outcome(out, ref)
        assert_same_stream(gen, gen_ref)

    @pytest.mark.parametrize(
        "config",
        [BackendConfig(dtype="float32"), BackendConfig(topk=4), BackendConfig(topk=16)],
        ids=["float32", "topk4", "topk16"],
    )
    @settings(max_examples=25, deadline=None)
    @given(case=cases())
    def test_equals_per_stage_loop_under_backend_modes(self, config, case):
        with backend_scope(config):
            out, ref, gen, gen_ref = _both(*case)
        assert_same_outcome(out, ref)
        assert_same_stream(gen, gen_ref)

    @settings(max_examples=25, deadline=None)
    @given(case=cases())
    def test_equals_per_stage_loop_under_topk_without_scipy(self, case):
        """The top-k operator's einsum fallback, as a SciPy-less install
        runs it."""
        with pytest.MonkeyPatch.context() as mp, backend_scope(BackendConfig(topk=4)):
            mp.setitem(sys.modules, "scipy", None)
            out, ref, gen, gen_ref = _both(*case)
        assert_same_outcome(out, ref)
        assert_same_stream(gen, gen_ref)

    @settings(max_examples=40, deadline=None)
    @given(case=cases(), n=st.integers(1, 10**4))
    def test_schedule_equals_per_stage_division(self, case, n):
        _inst, _beta, q, repeats, damping, _block, _seed = case
        plan = simulation_schedule(q, n, repeats=repeats, damping=damping)
        ref = ref_simulation_schedule(q, n, repeats=repeats, damping=damping)
        assert [(b_k, r) for b_k, _sq, r in plan] == [(b_k, r) for b_k, _sq, r in ref]
        for (_b, sq, _r), (_rb, ref_sq, _rr) in zip(plan, ref):
            assert sq.tobytes() == ref_sq.tobytes()

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_e6_sizes(self, n):
        """E6's sizes at the paper's constants, several seeds each."""
        gen = np.random.default_rng(n)
        side = 1000.0 * np.sqrt(n / 100.0)
        recv = gen.uniform(0.0, side, (n, 2))
        angle = gen.uniform(0.0, 2.0 * np.pi, n)
        send = recv + gen.uniform(20.0, 40.0, n)[:, None] * np.column_stack(
            [np.cos(angle), np.sin(angle)]
        )
        d = np.linalg.norm(send[:, None, :] - recv[None, :, :], axis=2)
        inst = SINRInstance(2.0 / d**2.2, 4e-7)
        q = np.full(n, 0.3)
        for seed in range(10):
            out, ref, gen_out, gen_ref = _both(inst, 1.0, q, 19, 4.0, None, seed)
            assert_same_outcome(out, ref)
            assert_same_stream(gen_out, gen_ref)

    @pytest.mark.parametrize("channel", ["rayleigh", "nakagami:m=2", "block:coherence=3"])
    @settings(max_examples=10, deadline=None)
    @given(case=cases())
    def test_stochastic_channels_keep_the_stage_loop(self, channel, case):
        """A channel that draws while it evaluates still sees its draws
        interleaved with the patterns, stage by stage."""
        out, ref, gen, gen_ref = _both(*case, channel=channel)
        assert_same_outcome(out, ref)
        assert_same_stream(gen, gen_ref)


# ---------------------------------------------------------------------------
# The stacked SINR kernel
# ---------------------------------------------------------------------------


class TestStackedSINRBatch:
    @pytest.mark.parametrize(
        "config",
        [BackendConfig(), BackendConfig(dtype="float32"), BackendConfig(topk=8)],
        ids=["float64", "float32", "topk8"],
    )
    @settings(max_examples=40, deadline=None)
    @given(
        case=instances(),
        stages=st.integers(1, 8),
        rows=st.integers(1, 25),
        seed=st.integers(0, 10**6),
    )
    def test_stack_equals_per_slice_calls(self, config, case, stages, rows, seed):
        inst, _beta = case
        patterns = np.random.default_rng(seed).random((stages, rows, inst.n)) < 0.4
        with backend_scope(config):
            stacked = inst.sinr_batch(patterns)
            slices = [inst.sinr_batch(patterns[s]) for s in range(stages)]
        assert stacked.shape == patterns.shape and stacked.dtype == np.float64
        for s in range(stages):
            assert stacked[s].tobytes() == slices[s].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        case=instances(),
        k=st.integers(1, 12),
        stages=st.integers(1, 8),
        rows=st.integers(1, 25),
        seed=st.integers(0, 10**6),
    )
    def test_topk_einsum_fallback_stack_equals_per_slice_calls(
        self, case, k, stages, rows, seed
    ):
        inst, _beta = case
        if k >= inst.n - 1:
            return
        op = TopKGains.build(inst.gains, k, keep_diagonal=True, use_scipy=False)
        patterns = np.random.default_rng(seed).random((stages, rows, inst.n)) < 0.4
        stacked = sinr_nonfading_batch(inst.gains, patterns, inst.noise, gains_op=op)
        for s in range(stages):
            ref = sinr_nonfading_batch(inst.gains, patterns[s], inst.noise, gains_op=op)
            assert stacked[s].tobytes() == ref.tobytes()

    def test_strided_slices_and_deeper_stacks(self):
        gen = np.random.default_rng(1)
        inst = SINRInstance(gen.uniform(0.01, 1.0, (30, 30)) + np.eye(30), 1e-3)
        patterns = gen.random((2, 3, 19, 30)) < 0.5
        stacked = inst.sinr_batch(patterns[:, :, 4:11])
        for i in range(2):
            for j in range(3):
                ref = inst.sinr_batch(np.ascontiguousarray(patterns[i, j, 4:11]))
                assert stacked[i, j].tobytes() == ref.tobytes()

    def test_rejects_a_single_pattern_and_a_wrong_width(self):
        inst = SINRInstance(np.eye(4) + 0.1, 0.0)
        with pytest.raises(ValueError, match="active batch"):
            inst.sinr_batch(np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match="active batch"):
            inst.sinr_batch(np.ones((2, 3, 5), dtype=bool))
