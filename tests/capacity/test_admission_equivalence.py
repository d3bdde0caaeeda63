"""The admission loops choose exactly the sets their masked forms chose.

``greedy_capacity`` and ``local_search_capacity`` test candidates against
cached admitted columns (:class:`repro.capacity.admission.Admission`),
local search lists its eviction blockers with one array expression and
its best-response refinement walks Python lists.  The loops they
replaced are kept below as references, and every instance hypothesis
generates must give the same chosen set, and for local search the same
generator state afterwards.  The instances reach the corners: ``n = 1``,
zero noise, duplicated links and senders sitting on another link's
receiver (exact ties and huge affectances), and links blocked by noise
alone.

Greedy, local search's construction and its greedy completion, and
repeated maximization's planner now share one pass,
:meth:`~repro.capacity.admission.Admission.fill`.  The three per-link
loops it replaced are kept as references too and must admit the same
links on random candidate subsets, and the planner must pick
``greedy_capacity``'s set on the candidates' subinstance.  Local
search's improvement rounds screen the links a pass need not visit;
the masked reference has no screen, and E3's paper networks (at the
paper's β and at β × 0.5 and β × 3, whole and on their first 18 links)
pin the screened rounds on the sets E3 runs.

Two latency-side shortcuts are pinned here too: the Rayleigh channel's
unscreened path for batches without a dense slot, against the method
it replaced, and E8's reuse of the non-fading ALOHA probability in its
faded trials, against ``q="auto"``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capacity.admission import Admission
from repro.capacity.greedy import _resolve_order, greedy_capacity, greedy_planner
from repro.capacity.optimum import _prepare, local_search_capacity
from repro.channel import RayleighChannel
from repro.core.affectance import affectance_matrix
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.experiments import latency_compare
from repro.experiments.config import Figure1Config
from repro.experiments.workloads import figure1_networks, instance_pair
from repro.geometry.placement import paper_random_network
from repro.utils.rng import as_generator

_EPS = 1e-12


# ---------------------------------------------------------------------------
# Reference loops: the masked forms the admission helper replaced.
# ---------------------------------------------------------------------------


def ref_greedy_capacity(instance, beta, *, margin=1.0, order="signal", weights=None, rng=None):
    n = instance.n
    a = affectance_matrix(instance, beta, clamped=False)
    base_order = _resolve_order(instance, order, rng)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        rank = np.empty(n, dtype=np.float64)
        rank[base_order] = np.arange(n)
        base_order = np.lexsort((rank, -w))
    admitted = []
    incoming = np.zeros(n, dtype=np.float64)
    admitted_mask = np.zeros(n, dtype=bool)
    for i in base_order:
        i = int(i)
        if instance.signal[i] <= beta * instance.noise:
            continue
        if not np.isfinite(incoming[i]) or incoming[i] > margin + _EPS:
            continue
        if admitted and np.any(incoming[admitted_mask] + a[i, admitted_mask] > margin + _EPS):
            continue
        admitted.append(i)
        admitted_mask[i] = True
        incoming += a[i, :]
    return np.array(sorted(admitted), dtype=np.intp)


def _ref_prepare(instance, beta):
    a = affectance_matrix(instance, beta, clamped=False)
    viable = instance.signal > beta * instance.noise
    if not viable.all():
        a[:, ~viable] = 0.0
    return a, viable


def _ref_feasible_with(incoming, members, a, k):
    if incoming[k] > 1.0 + _EPS:
        return False
    if members.any() and np.any(incoming[members] + a[k, members] > 1.0 + _EPS):
        return False
    return True


def _ref_best_response_refine(a, viable, members, rng, *, max_rounds=60):
    n = a.shape[0]
    mask = members.copy()
    for _ in range(max_rounds):
        changed = False
        incoming = mask.astype(np.float64) @ a
        for i in rng.permutation(n):
            i = int(i)
            if not viable[i]:
                continue
            want = incoming[i] <= 1.0 + _EPS
            if want != mask[i]:
                if want:
                    incoming += a[i, :]
                else:
                    incoming -= a[i, :]
                mask[i] = want
                changed = True
        if not changed:
            return mask
    return members


def _ref_greedy_in_order(a, viable, order):
    n = a.shape[0]
    incoming = np.zeros(n, dtype=np.float64)
    members = np.zeros(n, dtype=bool)
    chosen = []
    for k in order:
        k = int(k)
        if not viable[k]:
            continue
        if _ref_feasible_with(incoming, members, a, k):
            chosen.append(k)
            members[k] = True
            incoming += a[k, :]
    return chosen, incoming


def ref_local_search_capacity(instance, beta, rng=None, *, restarts=10, improvement_rounds=4):
    gen = as_generator(rng)
    n = instance.n
    a, viable = _ref_prepare(instance, beta)
    signal_order = np.argsort(-instance.signal, kind="stable")
    best = []
    for restart in range(restarts):
        order = signal_order if restart == 0 else gen.permutation(n)
        chosen, incoming = _ref_greedy_in_order(a, viable, order)
        members = np.zeros(n, dtype=bool)
        members[chosen] = True
        refined = _ref_best_response_refine(a, viable, members, gen)
        if refined.sum() >= members.sum():
            members = refined
            chosen = np.flatnonzero(members).tolist()
            incoming = members.astype(np.float64) @ a
        for _ in range(improvement_rounds):
            improved = False
            outside = [k for k in range(n) if viable[k] and not members[k]]
            gen.shuffle(outside)
            for k in outside:
                if members[k]:
                    continue
                if _ref_feasible_with(incoming, members, a, k):
                    chosen.append(k)
                    members[k] = True
                    incoming += a[k, :]
                    improved = True
                    continue
                blockers = [
                    j
                    for j in chosen
                    if a[j, k] > _EPS or incoming[j] + a[k, j] > 1.0 + _EPS
                ]
                if not blockers or len(blockers) > 3:
                    continue
                j = int(gen.choice(blockers))
                trial_members = members.copy()
                trial_members[j] = False
                trial_incoming = incoming - a[j, :]
                if not _ref_feasible_with(trial_incoming, trial_members, a, k):
                    continue
                trial_members[k] = True
                trial_incoming = trial_incoming + a[k, :]
                trial = [x for x in chosen if x != j] + [k]
                for m in range(n):
                    if viable[m] and not trial_members[m] and _ref_feasible_with(
                        trial_incoming, trial_members, a, m
                    ):
                        trial.append(m)
                        trial_members[m] = True
                        trial_incoming += a[m, :]
                if len(trial) > len(chosen):
                    chosen = trial
                    members = trial_members
                    incoming = trial_incoming
                    improved = True
            if not improved:
                break
        if len(chosen) > len(best):
            best = chosen
    return np.array(sorted(best), dtype=np.intp)


# The three per-link admission loops ``Admission.fill`` replaced, on the
# same Admission state.  ``greedy_capacity``'s refused a candidate whose
# incoming affectance was not finite; local search's construction and its
# greedy completion refused one whose incoming affectance was over budget.


def ref_greedy_loop(adm, candidates):
    incoming = adm.incoming
    for i in candidates:
        x = incoming[i]
        if not math.isfinite(x) or x > adm.threshold:
            continue
        if not adm.members or not adm.over(i).any():
            adm.admit(i)


def ref_construction_loop(adm, candidates):
    incoming = adm.incoming
    for k in candidates:
        if not incoming[k] > adm.threshold and (not adm.members or not adm.over(k).any()):
            adm.admit(k)


def ref_completion_loop(adm, candidates, members):
    for m in candidates:
        if not adm.incoming[m] > adm.threshold and (not adm.members or not adm.over(m).any()):
            adm.admit(m)
            members[m] = True


def ref_apply_slot_fields(channel, fields, patterns, offset=0):
    """``RayleighChannel.apply_slot_fields`` before the unscreened path."""
    pats = channel._patterns(patterns)
    out = np.zeros(pats.shape, dtype=bool)
    rows, cols = np.nonzero(pats)
    if rows.size == 0:
        return out
    u = fields[offset : offset + pats.shape[0]]
    kern = channel.kernel
    u_e = u[rows, cols]
    counts = np.bincount(rows, minlength=pats.shape[0])
    screened = counts[rows] > kern.screen_cutoff
    survive = np.ones(rows.size, dtype=bool)
    if screened.any():
        bound = kern.screen_bound(pats, rows[screened], cols[screened])
        survive[screened] = u_e[screened] < bound
    srows = rows[survive]
    scols = cols[survive]
    p = kern.conditional_at(pats, srows, scols, actives=(rows, cols, counts))
    live = u_e[survive] < p
    plain = ~screened[survive]
    kern.note_hit_rate(int(plain.sum()), int(live[plain].sum()))
    out[srows[live], scols[live]] = True
    return out


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@st.composite
def instances(draw, max_n=150):
    """``(instance, beta)`` pairs covering the degenerate corners."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["geometric", "matrix", "dyadic"]))
    if kind == "dyadic":
        beta = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    else:
        beta = draw(st.floats(0.5, 5.0))
    noise = draw(st.sampled_from([0.0, 4e-7])) if kind != "dyadic" else 0.0
    density = draw(st.sampled_from([0.25, 1.0, 4.0]))
    colocated = draw(st.sampled_from([0.0, 0.2]))
    blocked = draw(st.sampled_from([0.0, 0.2])) if noise > 0 else 0.0
    gen = np.random.default_rng(seed)
    if kind == "geometric":
        side = 1000.0 * np.sqrt(n / 100.0 / density)
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
    else:
        if kind == "matrix":
            # Heavy-tailed gains: far from any metric, and the small
            # instances are where local search's evict-and-refill
            # trials happen.
            gains = gen.lognormal(0.0, 2.0, (n, n)) * 1e-6
            gains[np.diag_indices(n)] *= n * density
        else:
            # Powers of two with ν = 0: affectances are exact dyadic
            # rationals, so sums land exactly on the budget.  Own signals
            # nudged by 1e-13 or 1e-10 put sums just inside or just
            # outside the 1e-12 tolerance.
            gains = 2.0 ** gen.integers(-8, 0, (n, n)).astype(np.float64)
            nudge = gen.choice([0.0, 1e-13, -1e-13, 1e-10, -1e-10], n)
            gains[np.diag_indices(n)] = 2.0 ** gen.integers(0, 3, n) * (1.0 + nudge)
        for i in np.flatnonzero(gen.random(n) < colocated):
            src = int(gen.integers(n))
            gains[i, :], gains[:, i] = gains[src, :], gains[:, src]
    if blocked > 0:
        # Own signal at or below βν: blocked by noise alone.
        idx = np.flatnonzero(gen.random(n) < blocked)
        gains[idx, idx] = beta * noise * gen.uniform(0.1, 1.0, idx.size)
    return SINRInstance(gains, noise), beta


def assert_same_set(out, ref):
    assert out.dtype == ref.dtype
    np.testing.assert_array_equal(out, ref)


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------


class TestGreedy:
    @settings(max_examples=60, deadline=None)
    @given(case=instances(), margin=st.sampled_from([1.0, 0.5]))
    def test_signal_order(self, case, margin):
        inst, beta = case
        assert_same_set(
            greedy_capacity(inst, beta, margin=margin),
            ref_greedy_capacity(inst, beta, margin=margin),
        )

    @settings(max_examples=40, deadline=None)
    @given(case=instances(), margin=st.sampled_from([1.0, 0.5]), seed=st.integers(0, 10**6))
    def test_random_order(self, case, margin, seed):
        inst, beta = case
        gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = greedy_capacity(inst, beta, margin=margin, order="random", rng=gen)
        ref = ref_greedy_capacity(inst, beta, margin=margin, order="random", rng=gen_ref)
        assert_same_set(out, ref)
        assert gen.bit_generator.state == gen_ref.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(case=instances(), margin=st.sampled_from([1.0, 0.5]), data=st.data())
    def test_explicit_order(self, case, margin, data):
        inst, beta = case
        order = np.array(data.draw(st.permutations(range(inst.n))), dtype=np.intp)
        assert_same_set(
            greedy_capacity(inst, beta, margin=margin, order=order),
            ref_greedy_capacity(inst, beta, margin=margin, order=order),
        )

    @settings(max_examples=40, deadline=None)
    @given(case=instances(), margin=st.sampled_from([1.0, 0.5]), seed=st.integers(0, 10**6))
    def test_weighted(self, case, margin, seed):
        inst, beta = case
        # Few distinct weights, so the base order breaks many ties.
        w = np.random.default_rng(seed).integers(0, 4, inst.n).astype(np.float64)
        assert_same_set(
            greedy_capacity(inst, beta, margin=margin, weights=w),
            ref_greedy_capacity(inst, beta, margin=margin, weights=w),
        )


# ---------------------------------------------------------------------------
# One admission pass
# ---------------------------------------------------------------------------


def _prefix(a, threshold, gen, n):
    """An Admission already holding a feasible set, as local search's
    completion starts from: the greedy set of a random order's prefix."""
    adm = Admission(a, threshold)
    adm.fill(gen.permutation(n)[: int(gen.integers(0, n + 1))])
    return Admission(a, threshold, list(adm.members), adm.incoming.copy())


class TestFill:
    @settings(max_examples=60, deadline=None)
    @given(case=instances(), margin=st.sampled_from([1.0, 0.5]), seed=st.integers(0, 10**6))
    def test_greedy_loop(self, case, margin, seed):
        # Unclamped affectance, noise-blocked columns at +inf: greedy's.
        inst, beta = case
        gen = np.random.default_rng(seed)
        a = affectance_matrix(inst, beta, clamped=False)
        cand = gen.permutation(inst.n)[: int(gen.integers(0, inst.n + 1))]
        out, ref = Admission(a, margin + _EPS), Admission(a, margin + _EPS)
        out.fill(cand)
        ref_greedy_loop(ref, cand.tolist())
        assert out.members == ref.members
        np.testing.assert_array_equal(out.incoming, ref.incoming)

    @settings(max_examples=60, deadline=None)
    @given(case=instances(), seed=st.integers(0, 10**6))
    def test_construction_and_completion_loops(self, case, seed):
        # Local search's matrix: noise-blocked columns zeroed.
        inst, beta = case
        gen = np.random.default_rng(seed)
        a, viable = _prepare(inst, beta)
        order = gen.permutation(inst.n)
        out, ref = Admission(a, 1.0 + _EPS), Admission(a, 1.0 + _EPS)
        out.fill(order[viable[order]])
        ref_construction_loop(ref, order[viable[order]].tolist())
        assert out.members == ref.members

        start = _prefix(a, 1.0 + _EPS, gen, inst.n)
        members = np.zeros(inst.n, dtype=bool)
        members[start.members] = True
        cand = np.flatnonzero(viable & ~members)
        out = Admission(a, start.threshold, start.members, start.incoming.copy())
        ref = Admission(a, start.threshold, start.members, start.incoming.copy())
        out.fill(cand)
        ref_completion_loop(ref, cand.tolist(), members.copy())
        assert out.members == ref.members

    def test_nan_and_inf_decide_as_any(self):
        # Link 2 affects link 0 by NaN and link 1 by +inf: any(· > budget)
        # refuses it, and a NaN-propagating maximum would admit it.
        a = np.zeros((4, 4))
        a[2, 0], a[2, 1] = np.nan, np.inf
        a[3, 0] = np.nan
        for loop in (ref_greedy_loop, ref_construction_loop):
            out, ref = Admission(a, 1.0 + _EPS, [0, 1]), Admission(a, 1.0 + _EPS, [0, 1])
            out.fill([2, 3])
            loop(ref, [2, 3])
            assert out.members == ref.members == [0, 1, 3]
        # A candidate whose own incoming affectance is +inf or NaN is refused.
        inc = np.array([0.0, 0.0, np.inf, np.nan])
        out = Admission(np.zeros((4, 4)), 1.0 + _EPS, incoming=inc)
        out.fill([2, 3, 0])
        assert out.members == [0]


class TestGreedyPlanner:
    @settings(max_examples=60, deadline=None)
    @given(case=instances(), data=st.data())
    def test_equals_greedy_on_the_subinstance(self, case, data):
        # Repeated maximization's rounds: shrinking candidate sets,
        # including noise-blocked links.
        inst, beta = case
        plan = greedy_planner(inst, beta)
        cand = np.arange(inst.n)
        while cand.size:
            out = plan(cand)
            ref = cand[greedy_capacity(inst.subinstance(cand), beta)]
            assert_same_set(out, ref)
            drop = data.draw(st.lists(st.integers(0, cand.size - 1), min_size=1, max_size=8))
            cand = np.delete(cand, drop)


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------


class TestLocalSearch:
    @settings(max_examples=40, deadline=None)
    @given(case=instances(), seed=st.integers(0, 10**6), restarts=st.sampled_from([1, 3, 10]))
    def test_same_set_and_generator_state(self, case, seed, restarts):
        inst, beta = case
        gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = local_search_capacity(inst, beta, gen, restarts=restarts)
        ref = ref_local_search_capacity(inst, beta, gen_ref, restarts=restarts)
        assert_same_set(out, ref)
        assert gen.bit_generator.state == gen_ref.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(case=instances(max_n=12), seed=st.integers(0, 10**6))
    def test_small_instances(self, case, seed):
        # Evict-and-refill trials are common only at small n.
        inst, beta = case
        gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = local_search_capacity(inst, beta, gen, restarts=3)
        ref = ref_local_search_capacity(inst, beta, gen_ref, restarts=3)
        assert_same_set(out, ref)
        assert gen.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_paper_scale(self, seed):
        # E18's lower bound: n = 100 at the paper's density, 8 restarts.
        s, r = paper_random_network(100, rng=seed)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        gen, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = local_search_capacity(inst, 2.5, gen, restarts=8)
        ref = ref_local_search_capacity(inst, 2.5, gen_ref, restarts=8)
        assert_same_set(out, ref)
        assert gen.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("links", [18, None])
    def test_e3_networks(self, scale, links):
        # Two of E3's forty paper networks, whole and on the first 18
        # links it solves exactly, at the paper's β and at β × 0.5 and
        # β × 3.
        cfg = replace(Figure1Config.paper(), num_networks=2)
        beta = cfg.params.beta * scale
        for k, net in enumerate(figure1_networks(cfg)):
            inst, _ = instance_pair(net, cfg.params, with_sqrt=False)
            if links is not None:
                inst = inst.subinstance(np.arange(links))
            gen, gen_ref = np.random.default_rng(k), np.random.default_rng(k)
            out = local_search_capacity(inst, beta, gen, restarts=8)
            ref = ref_local_search_capacity(inst, beta, gen_ref, restarts=8)
            assert_same_set(out, ref)
            assert gen.bit_generator.state == gen_ref.bit_generator.state


# ---------------------------------------------------------------------------
# Rayleigh slot fields around the screening cutoff
# ---------------------------------------------------------------------------


def _batch_at(n, rows, top, gen):
    """``rows`` random patterns whose largest active count is ``top``."""
    pats = np.zeros((rows, n), dtype=bool)
    for r in range(rows):
        count = top if r == rows // 2 else int(gen.integers(0, top + 1))
        pats[r, gen.choice(n, size=count, replace=False)] = True
    return pats


@pytest.mark.parametrize("low_hit_rate", [False, True])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_rayleigh_slot_fields_around_screen_cutoff(low_hit_rate, delta):
    s, r = paper_random_network(100, area=300.0, rng=4)
    inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
    new, ref = RayleighChannel(inst, 2.5), RayleighChannel(inst, 2.5)
    if low_hit_rate:
        # Drive both hit-rate averages down: the cutoff drops from 3K to K.
        for ch in (new, ref):
            for _ in range(10):
                ch.kernel.note_hit_rate(100, 0)
    cutoff = new.kernel.screen_cutoff
    assert cutoff == ref.kernel.screen_cutoff
    gen = np.random.default_rng(cutoff + delta)
    fields = new.slot_fields(40, np.random.default_rng(9))
    for offset in (0, 7):
        pats = _batch_at(inst.n, 24, cutoff + delta, gen)
        out = new.apply_slot_fields(fields, pats, offset=offset)
        expect = ref_apply_slot_fields(ref, fields, pats, offset=offset)
        np.testing.assert_array_equal(out, expect)
        # The hit-rate feedback (which steers the cutoff) matches too.
        assert new.kernel.screen_cutoff == ref.kernel.screen_cutoff
        assert new.kernel._hit_ema == ref.kernel._hit_ema


# ---------------------------------------------------------------------------
# E8: the faded ALOHA trials reuse the non-fading run's probability
# ---------------------------------------------------------------------------


def test_e8_reused_probability_equals_auto(monkeypatch):
    cfg = replace(Figure1Config.quick(), num_networks=2)
    reused = latency_compare.run_latency_compare(cfg)

    original = latency_compare.aloha_latency

    def auto_aloha(*args, q="auto", **kwargs):
        return original(*args, **kwargs)  # every call re-derives q="auto"

    monkeypatch.setattr(latency_compare, "aloha_latency", auto_aloha)
    auto = latency_compare.run_latency_compare(cfg)
    assert reused.data == auto.data
    assert reused.text == auto.text
    assert reused.checks == auto.checks
