"""Block-size equivalence of the shared slot-loop engine.

The engine pre-draws per-slot randomness positionally, so every
scheduler must produce an *identical* trajectory for every
``slot_block`` — the block size is purely a throughput knob and
``slot_block=1`` is the sequential reference.  These tests pin that
contract across all four schedulers and the full channel zoo
(deterministic, Rayleigh, Nakagami, block fading with multi-slot
coherence, whose chunk alignment is the subtlest case).

Three cuts to re-planning are pinned against the code they replaced,
kept below as references: repeated maximization plans every round on
the parent instance (the reference builds a subinstance of the unserved
links per round); a repeated pattern's Rayleigh window evaluates its
Theorem-1 row once (the reference evaluates every row); and a contention
run's first window is sized by ``n`` (the reference starts at 8 rows).
Schedules, ``served_at`` and generator states must be equal, under every
channel family, ``--dtype float32`` and ``--topk 16``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.backend import BackendConfig
from repro.capacity.greedy import greedy_capacity
from repro.channel import RayleighChannel
from repro.channel.spec import make_channel
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import paper_random_network
from repro.latency import slotloop
from repro.latency.aloha import aloha_latency
from repro.latency.decay import decay_latency
from repro.latency.multihop import MultiHopRequest, multihop_latency
from repro.latency.repeated_max import repeated_max_latency
from repro.latency.slotloop import SlotFieldBuffer, resolve_slot_block
from repro.run_context import run_scope
from repro.utils.rng import as_generator
from tests.capacity.test_admission_equivalence import instances, ref_apply_slot_fields

BETA = 2.5

CHANNELS = ["nonfading", "rayleigh", "nakagami:m=2", "block:coherence=5"]
BLOCKS = [7, 64]


def random_instance(seed: int, n: int = 12) -> SINRInstance:
    s, r = paper_random_network(n, rng=seed)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


def relay_paths(seed: int, count: int = 4):
    gen = np.random.default_rng(seed)
    requests = []
    for _ in range(count):
        start = gen.uniform(0.0, 500.0, size=2)
        end = gen.uniform(0.0, 500.0, size=2)
        hops = int(gen.integers(2, 5))
        requests.append(
            MultiHopRequest(np.linspace(start, end, hops + 1))
        )
    return requests


def assert_same_schedule(a, b):
    """Byte-level identity of two Schedule objects."""
    assert a.schedule.length == b.schedule.length
    for sa, sb in zip(a.schedule.slots, b.schedule.slots):
        np.testing.assert_array_equal(sa, sb)
    np.testing.assert_array_equal(a.served_at, b.served_at)
    assert a.latency == b.latency


class TestSingleHopEquivalence:
    """aloha / decay / repeated_max: identical Schedule, served_at, and
    latency at every block size."""

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("block", BLOCKS)
    def test_aloha(self, channel, block):
        inst = random_instance(21)
        ref = aloha_latency(inst, BETA, rng=5, channel=channel, slot_block=1)
        out = aloha_latency(inst, BETA, rng=5, channel=channel, slot_block=block)
        assert_same_schedule(ref, out)
        assert ref.q_used == out.q_used
        assert ref.protocol_steps == out.protocol_steps

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("block", BLOCKS)
    def test_decay(self, channel, block):
        inst = random_instance(22)
        ref = decay_latency(inst, BETA, rng=6, channel=channel, slot_block=1)
        out = decay_latency(inst, BETA, rng=6, channel=channel, slot_block=block)
        assert_same_schedule(ref, out)

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("block", BLOCKS)
    def test_repeated_max(self, channel, block):
        inst = random_instance(23)
        ref = repeated_max_latency(
            inst, BETA, rng=7, channel=channel, slot_block=1
        )
        out = repeated_max_latency(
            inst, BETA, rng=7, channel=channel, slot_block=block
        )
        assert_same_schedule(ref, out)


class TestMultihopEquivalence:
    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("block", BLOCKS)
    def test_multihop(self, channel, block):
        requests = relay_paths(31)
        ref = multihop_latency(
            requests, beta=2.0, alpha=2.5, noise=0.0, channel=channel,
            rng=9, slot_block=1,
        )
        out = multihop_latency(
            requests, beta=2.0, alpha=2.5, noise=0.0, channel=channel,
            rng=9, slot_block=block,
        )
        assert ref.makespan == out.makespan
        np.testing.assert_array_equal(ref.finish_times, out.finish_times)
        assert ref.hops_total == out.hops_total


class TestBlockOneIsDefault:
    """``slot_block=1`` degenerates to the scheduler's default
    (unspecified block) trajectory — the engine's default block only
    changes grouping, never draws."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_aloha_default_equals_block_one(self, seed):
        inst = random_instance(seed % 97, n=10)
        ref = aloha_latency(inst, BETA, rng=seed, channel="rayleigh",
                            slot_block=1)
        out = aloha_latency(inst, BETA, rng=seed, channel="rayleigh")
        assert_same_schedule(ref, out)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_decay_default_equals_block_one(self, seed):
        inst = random_instance(seed % 89, n=10)
        ref = decay_latency(inst, BETA, rng=seed, channel="block:coherence=3",
                            slot_block=1)
        out = decay_latency(inst, BETA, rng=seed, channel="block:coherence=3")
        assert_same_schedule(ref, out)


# ---------------------------------------------------------------------------
# References: the re-planning code the three cuts replaced
# ---------------------------------------------------------------------------


def ref_run_fixed_pattern(fields, start, mask, *, max_rows, slot_block=None):
    """``run_fixed_pattern`` evaluating every row of a window."""
    cap = resolve_slot_block(slot_block)
    n = mask.size
    used = 0
    window = 1
    while used < max_rows:
        m = min(window, max_rows - used)
        pats = np.broadcast_to(mask, (m, n))
        ok = fields.apply(start + used, pats) & mask
        hit_rows = ok.any(axis=1)
        if hit_rows.any():
            r = int(hit_rows.argmax())
            return used + r + 1, ok[r]
        used += m
        window = min(cap, window * 2)
    return used, np.zeros(n, dtype=bool)


def ref_repeated_max_latency(instance, beta, *, channel="nonfading", rng=None, slot_block=None):
    """``repeated_max_latency`` with ``greedy_capacity`` on a fresh
    subinstance of the unserved links every round; returns
    ``(slots, served_at)``."""
    ch = make_channel(channel, instance, beta)
    gen = as_generator(rng)
    n = instance.n
    cap = 2 * n if ch.is_deterministic else 50 * n
    remaining = np.arange(n)
    served_at = np.full(n, -1, dtype=np.int64)
    slots = []
    fields = SlotFieldBuffer(ch, gen)
    while remaining.size:
        assert len(slots) < cap
        sub = instance.subinstance(remaining)
        local = np.asarray(greedy_capacity(sub, beta, margin=1.0), dtype=np.intp)
        chosen = remaining[local]
        mask = np.zeros(n, dtype=bool)
        mask[chosen] = True
        if ch.is_deterministic:
            ok = fields.apply(len(slots), mask[None])[0] & mask
            used = 1
        else:
            used, ok = ref_run_fixed_pattern(
                fields, len(slots), mask, max_rows=cap - len(slots), slot_block=slot_block
            )
        slots.extend([np.sort(chosen)] * used)
        fields.release(len(slots))
        served = np.flatnonzero(ok)
        served_at[served] = len(slots) - 1
        if ch.is_deterministic and served.size == 0:
            strongest = chosen[int(np.argmax(instance.signal[chosen]))]
            slots.append(np.array([strongest], dtype=np.intp))
            served_at[strongest] = len(slots) - 1
            served = np.array([strongest])
        served_mask = np.zeros(n, dtype=bool)
        served_mask[served] = True
        remaining = remaining[~served_mask[remaining]]
    return slots, served_at


EQUIV_CHANNELS = ["nonfading", "rayleigh", "nakagami:m=2", "block:coherence=3"]
BACKENDS = {
    "default": BackendConfig(),
    "float32": BackendConfig(dtype="float32"),
    "topk16": BackendConfig(topk=16),
}


def assert_same_slots(result, slots, served_at):
    assert result.latency == len(slots)
    for sa, sb in zip(result.schedule.slots, slots):
        np.testing.assert_array_equal(sa, sb)
    np.testing.assert_array_equal(result.served_at, served_at)


class TestParentInstancePlanning:
    @settings(max_examples=60, deadline=None)
    @given(
        case=instances(),
        channel=st.sampled_from(EQUIV_CHANNELS),
        backend=st.sampled_from(sorted(BACKENDS)),
        seed=st.integers(0, 10**6),
    )
    def test_equals_one_subinstance_per_round(self, case, channel, backend, seed):
        inst, beta = case
        assume(np.all(inst.signal > beta * inst.noise))
        gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with run_scope(backend=BACKENDS[backend]):
            out = repeated_max_latency(inst, beta, channel=channel, rng=gen)
            slots, served_at = ref_repeated_max_latency(inst, beta, channel=channel, rng=gen_ref)
        assert_same_slots(out, slots, served_at)
        assert gen.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("channel", ["nonfading", "rayleigh"])
    @pytest.mark.parametrize("seed", range(2))
    def test_paper_networks(self, channel, seed):
        # E8's setting: n = 100 at the paper's density.
        inst = random_instance(seed, n=100)
        gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = repeated_max_latency(inst, BETA, channel=channel, rng=gen)
        slots, served_at = ref_repeated_max_latency(inst, BETA, channel=channel, rng=gen_ref)
        assert_same_slots(out, slots, served_at)
        assert gen.bit_generator.state == gen_ref.bit_generator.state


def _repeated_batch(n, count, gen):
    mask = np.zeros(n, dtype=bool)
    mask[gen.choice(n, size=count, replace=False)] = True
    return mask


class TestOneTheorem1RowPerWindow:
    @pytest.mark.parametrize("low_hit_rate", [False, True])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_around_screen_cutoff(self, low_hit_rate, delta):
        # Against the per-row path at active counts just below, at and
        # above the screening cutoff, whose dense patterns the per-row
        # path screens first; the hit-rate average must match too.
        s, r = paper_random_network(100, area=300.0, rng=4)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        new, ref = RayleighChannel(inst, 2.5), RayleighChannel(inst, 2.5)
        if low_hit_rate:
            for ch in (new, ref):
                for _ in range(10):
                    ch.kernel.note_hit_rate(100, 0)
        cutoff = new.kernel.screen_cutoff
        gen = np.random.default_rng(cutoff + delta)
        fields = new.slot_fields(80, np.random.default_rng(9))
        for rows, offset in ((1, 0), (13, 7), (64, 16)):
            mask = _repeated_batch(inst.n, cutoff + delta, gen)
            out = new.apply_repeated_fields(fields, mask, rows, offset=offset)
            expect = ref_apply_slot_fields(
                ref, fields, np.broadcast_to(mask, (rows, inst.n)), offset=offset
            )
            np.testing.assert_array_equal(out, expect)
            assert new.kernel._hit_ema == ref.kernel._hit_ema

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("channel", EQUIV_CHANNELS[1:])
    def test_run_fixed_pattern(self, channel, backend):
        inst = random_instance(5, n=60)
        gen = np.random.default_rng(3)
        with run_scope(backend=BACKENDS[backend]):
            for count in (0, 1, 5, 30, 60):
                mask = _repeated_batch(inst.n, count, gen)
                new, ref = (
                    SlotFieldBuffer(make_channel(channel, inst, BETA), np.random.default_rng(count))
                    for _ in range(2)
                )
                for start in (0, 5):
                    used, ok = slotloop.run_fixed_pattern(new, start, mask, max_rows=200)
                    used_ref, ok_ref = ref_run_fixed_pattern(ref, start, mask, max_rows=200)
                    assert used == used_ref
                    np.testing.assert_array_equal(ok, ok_ref)


class TestFirstWindow:
    @settings(max_examples=40, deadline=None)
    @given(
        case=instances(),
        channel=st.sampled_from(EQUIV_CHANNELS),
        backend=st.sampled_from(sorted(BACKENDS)),
        scheduler=st.sampled_from(["aloha", "decay"]),
        seed=st.integers(0, 10**6),
    )
    def test_equals_eight_row_start(self, case, channel, backend, scheduler, seed):
        inst, beta = case
        assume(np.all(inst.signal > beta * inst.noise))
        run = aloha_latency if scheduler == "aloha" else decay_latency
        gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with run_scope(backend=BACKENDS[backend]):
            out = run(inst, beta, gen, channel=channel)
            with pytest.MonkeyPatch.context() as mp:
                # The 8-row start: max(executions, 8) rows, capped at B.
                mp.setattr(slotloop, "_FIRST_WINDOW_LINK_SLOTS", 0)
                ref = run(inst, beta, gen_ref, channel=channel)
        assert_same_schedule(ref, out)
        assert gen.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("n, rows", [(1, 64), (100, 32), (300, 10), (400, 8), (1000, 8)])
    def test_window_rule(self, n, rows, monkeypatch):
        # The first window's row count, read off the first speculated block.
        seen = []
        monkeypatch.setattr(slotloop, "_TransmitBuffer", _recording(seen))
        ch = make_channel("nonfading", random_instance(0, n=n), BETA)
        slotloop.run_contention(ch, lambda step: 0.0, 0, executions=4, max_steps=20)
        assert seen[0] == rows


def _recording(seen):
    class Recording(slotloop._TransmitBuffer):
        def rows(self, start, m):
            seen.append(m)
            return super().rows(start, m)

    return Recording
