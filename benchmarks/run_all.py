"""Perf-regression harness for the hot-path kernels.

Times every cached/batched fast path against a retained *naive
reference* — the per-call / per-slot loop form the code used before the
kernel-caching work — and records per-kernel before/after seconds and
speedups in ``benchmarks/BENCH_summary.json``::

    PYTHONPATH=src python benchmarks/run_all.py            # full run: micro-kernels
                                                           # + pytest benchmarks/, rewrite baseline
    PYTHONPATH=src python benchmarks/run_all.py --quick    # micro-kernels only, fewer repeats
    PYTHONPATH=src python benchmarks/run_all.py --quick --check
                                                           # CI perf smoke: compare the fast-path
                                                           # timings against the recorded baseline
                                                           # and exit non-zero on a >5x regression

The naive references are kept *here*, not in the library: they pin the
cost model the optimisations were measured against, so the speedup
column stays meaningful after the original code is gone.  ``--check``
compares only the fast-path ("after") timings — reference timings drift
with the machine, but a fast path that lands within the regression
budget of its own recorded baseline is healthy regardless.

The array-backend **n-scaling sweep** times ``counterfactual_batch``
per backend mode (dense, top-k sparse, float32)
from ``n = 10²`` to ``n = 10⁴`` and records throughput, the sparse
speedup over dense, and the measured max deviation per point in
``benchmarks/BENCH_scaling.json``.  ``--check`` also enforces the
sparse-speedup floor (top-k ≥ 3x dense at ``n ≥ 3000``, the median
ratio of alternating dense/top-k pairs).

The **latency slot-loop** entries time each contention scheduler's
pre-engine sequential loop (one ``channel.realize`` interpreter round
trip per physical slot — the pre-engine ``_run_protocol`` form, retained
here) against the speculative block engine
(:func:`repro.latency.slotloop.run_contention`) on the same warm
Rayleigh channel and seed, at ``n = 10², 10³, 10⁴`` (full runs up to
``n = 10³``; fixed-step partial runs at ``n = 10⁴``).  ``--check``
enforces per-kernel speedup floors via ``KERNEL_EXPECTATIONS``: default
1.0 (a fast path must not lose to its reference), ≥5x for the ALOHA and
decay engines at ``n = 10³``, and explicit ``floor: None`` annotations
for overhead-tradeoff or informational entries.

Two entries time a default vectorized path at a scale an experiment
runs against the loop it replaced: ``capacity_game_T100_n200`` plays
the Figure-2 game with a list of scalar ``RWMLearner`` objects against
the default ``CapacityGame.play`` (a per-player-streams learner bank,
bit-identical), and ``block_transformed_steps_n60`` runs E15's
transformed step as a ``realize``-per-slot loop against
``BlockFadingChannel.transformed_steps``.  ``capacity_greedy_n100``
and ``capacity_local_search_n100`` time the capacity admission loops at
the paper's ``n = 100`` (greedy on a whole instance, local search as
E18's lower bound runs it) against the masked loops they replaced,
which return the same sets.  ``repeated_max_rayleigh_n100`` runs E8's
six repeated-maximization runs on one paper network (one non-fading,
five Rayleigh) against the loop that built a subinstance of the
unserved links every round and evaluated every row of a repeated
pattern; both schedule the same slots.  All five take the default
floor, and so does ``algorithm1_trials_e6_sizes``: 200 Algorithm-1
trials at each of E6's sizes (n = 20, 50, 100), a product per stage
against ``simulate_rayleigh_optimum``'s one stacked product per trial,
with the same patterns and outcomes.

The **executor throughput** entry times one identical sweep end-to-end
on the process-pool backend (``before_s``) and on the dispatch backend
with the same number of local workers (``after_s``), so the recorded
baseline pins how much the file-queue indirection costs and ``--check``
catches dispatch-path regressions like any other kernel.

Run as a script, the harness pins ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 (unless already
set) before numpy loads, as ``benchmarks/e2e`` does for its passes.
Unpinned, the dense reference's matmul runs on every core while the
top-k CSR product runs on one, and the sparse floor measures the core
count instead of the representation.

``--filter NAME`` restricts the micro-kernels, the scaling entries,
and the executor/telemetry benches: a bench's full name selects that
bench alone (``--filter latency_aloha_n100`` leaves n = 1000 and 10000
out), and any other string selects the names containing it (e.g.
``--filter scaling``).  Partial runs *merge* into the recorded
baselines instead of clobbering the entries they did not measure.  A
filter that matches nothing is an error: the run exits non-zero listing
the known bench names, before timing anything, rather than silently
rewriting baselines with an empty measurement set.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

# Run as a script, each BLAS library gets one thread before numpy loads,
# as benchmarks/e2e pins its passes (an explicit setting wins).  Importing
# this module, as the gate's tests do, changes nothing.
os.environ.update(
    {
        var: os.environ.get(var, "1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    if __name__ == "__main__"
    else {}
)

import numpy as np

from repro.backend import BackendConfig
from repro.capacity import greedy_capacity, local_search_capacity
from repro.channel import BlockFadingChannel, NonFadingChannel, RayleighChannel
from repro.core.affectance import affectance_matrix
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import paper_random_network
from repro.learning.game import CapacityGame
from repro.learning.regret import expected_send_rewards, lemma5_quantities
from repro.learning.rwm import RWMLearner
from repro.latency.repeated_max import repeated_max_latency
from repro.latency.slotloop import (
    DEFAULT_SLOT_BLOCK,
    SlotFieldBuffer,
    iter_slot_blocks,
    resolve_replay_block,
)
from repro.run_context import run_scope
from repro.transform.simulation import simulate_rayleigh_optimum
from repro.utils.logstar import b_sequence

import bench_obs

BENCH_DIR = Path(__file__).resolve().parent
SUMMARY_PATH = BENCH_DIR / "BENCH_summary.json"
SCALING_PATH = BENCH_DIR / "BENCH_scaling.json"

N = 100
T = 2000
BATCH = 256
BETA = 2.5
BLOCK_L = 16
BLOCK_SLOTS = 512

#: Capacity game at the Figure-2 scale (n=200 links, T=100 rounds,
#: beta=0.5, alpha=2.1, no noise) and the E15 transformed step (n=60,
#: q=0.3, 4 repeats) under block fading with coherence 2.
GAME_N, GAME_ROUNDS, GAME_BETA = 200, 100, 0.5
STEPS_N, STEPS_NUM, STEPS_L = 60, 500, 2

#: Algorithm-1 trials at E6's network sizes and transmission probability.
ALG1_NS, ALG1_TRIALS, ALG1_Q = (20, 50, 100), 200, 0.5

#: n-scaling sweep sizes: 10² → 10⁴ (full) and the CI subset (quick).
SCALING_NS = (100, 300, 1000, 3000, 10000)
SCALING_NS_QUICK = (100, 1000, 3000)
SCALING_BATCH = 64
SCALING_TOPK = 32

#: ``--check`` fails when a fast path runs slower than this multiple of
#: its recorded baseline.
REGRESSION_FACTOR = 5.0

#: ``--check`` fails when the top-k sparse path is not at least this
#: much faster than dense on ``counterfactual_batch`` at large n.  There
#: the gate reads the median ratio of ``SPARSE_FLOOR_PAIRS`` alternating
#: dense/top-k pairs (:func:`paired_speedup`): a single best-of timing
#: per mode read 2.7x-4.4x at n = 3000 over four ``--quick`` runs of one
#: build, and failed the floor about one run in five.
SPARSE_SPEEDUP_FLOOR = 3.0
SPARSE_FLOOR_MIN_N = 3000
SPARSE_FLOOR_PAIRS = 7

#: Latency slot-loop bench: Section-4 transformation repeats and the
#: measured ``(scheduler, n, square side, reference, partial steps,
#: q override)`` configurations.  The square side sets contention: the
#: enforced n=10³ kernels use the densest geometry where the engine's
#: advantage over the retained pre-engine loop was largest (ALOHA side
#: 500, decay side 125); n=10² and the n=10⁴ fixed-step partials are
#: informational.  The quick (CI perf-smoke) n=300 entries time the
#: batched engine against its own ``slot_block=1`` execution — B=1 *is*
#: the sequential path (identical trajectory), so that ratio isolates
#: speculation; at n=300 the pre-engine loop is interpreter-cheap and
#: not the bottleneck the engine exists for.
LATENCY_REPEATS = 4
LATENCY_BENCHES = (
    # (scheduler, n, side, reference, partial protocol steps, q override)
    ("aloha", 100, 1000.0, "naive", None, None),
    ("aloha", 1000, 500.0, "naive", None, None),
    ("aloha", 10000, 1000.0, "naive", 6, 0.01),
    ("decay", 100, 125.0, "naive", None, None),
    ("decay", 1000, 125.0, "naive", None, None),
    ("decay", 10000, 1000.0, "naive", 6, None),
)
LATENCY_BENCHES_QUICK = (
    ("aloha", 300, 125.0, "engine_b1", None, None),
    ("decay", 300, 125.0, "engine_b1", None, None),
)

#: ``--check`` fails when a kernel's *measured* speedup falls below its
#: floor.  Kernels absent from this table must simply not lose to their
#: reference (``DEFAULT_SPEEDUP_FLOOR``); ``floor: None`` marks an
#: entry as exempt — either an accepted overhead tradeoff or an
#: informational regime — so nothing is silently green anymore.
DEFAULT_SPEEDUP_FLOOR = 1.0
KERNEL_EXPECTATIONS: "dict[str, dict]" = {
    "executor_dispatch_vs_pool_32tasks": {
        "floor": None,
        "note": "overhead tradeoff: the file-queue dispatch backend pays "
        "claim/envelope file costs the in-process pool does not, and "
        "no experiment needs it for speed (0.8x-1.0x over ten --quick "
        "runs since local workers fork and wake the dispatcher, "
        "0.4x-1.2x and mostly 0.6x-0.8x before)",
    },
    "algorithm1_trials_e6_sizes": {
        "floor": 1.0,
        "note": "this harness does not apply the CLI's heap policy "
        "(repro.utils.heap), which every repro run does; at n=100 alone "
        "the stacked trial read 1.7x-1.9x of the per-stage loop here "
        "without it and 1.8x-2.0x with it (three runs each)",
    },
    "latency_aloha_n1000": {"floor": 5.0},
    "latency_decay_n1000": {"floor": 5.0},
    "latency_aloha_n300": {
        "floor": 3.0,
        "note": "CI perf-smoke: batched engine vs its own slot_block=1 "
        "sequential execution (identical trajectory)",
    },
    "latency_decay_n300": {
        "floor": 3.0,
        "note": "CI perf-smoke: batched engine vs its own slot_block=1 "
        "sequential execution (identical trajectory)",
    },
    "latency_aloha_n100": {
        "floor": None,
        "note": "informational: at the paper's n=100 the engine reaches "
        "parity with the naive per-slot loop since its first window holds "
        "3200 // n rows (32 here): 0.90-1.11x over five runs, three of them "
        "at or above 1.0x (0.53-0.57x with the 8-row start, same runs)",
    },
    "latency_decay_n100": {
        "floor": None,
        "note": "informational: 1.33-1.51x over five runs with the 3200 // n "
        "first window (0.88-1.50x with the 8-row start, same runs), but a "
        "sixth run on a busy host read 0.84x",
    },
    "latency_aloha_n10000": {
        "floor": None,
        "note": "informational: fixed-step partial run",
    },
    "latency_decay_n10000": {
        "floor": None,
        "note": "informational: fixed-step partial run",
    },
}


def _instance() -> SINRInstance:
    s, r = paper_random_network(N, rng=0)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


# ---------------------------------------------------------------------------
# Naive references — the pre-caching per-call/per-slot forms.
# ---------------------------------------------------------------------------


def _naive_conditional(instance: SINRInstance, q: np.ndarray, beta: float) -> np.ndarray:
    """Theorem-1 conditional probabilities, rebuilt from scratch per call
    (the original scalar-kernel form: one (n, n) factor matrix + product)."""
    signal = instance.signal
    t = beta * instance.gains
    factors = 1.0 - q[:, None] * (t / (t + signal[None, :]))
    np.fill_diagonal(factors, 1.0)
    prod = np.prod(factors, axis=0)
    noise_term = np.exp(-beta * instance.noise / signal)
    return noise_term * prod


def _naive_expected_send_rewards(
    instance: SINRInstance, actions: np.ndarray, beta: float
) -> np.ndarray:
    """Per-round loop of scalar Theorem-1 kernels (the pre-batching form)."""
    out = np.empty(actions.shape, dtype=np.float64)
    for t in range(actions.shape[0]):
        q = actions[t].astype(np.float64)
        out[t] = 2.0 * _naive_conditional(instance, q, beta) - 1.0
    return out


def _naive_lemma5(
    instance: SINRInstance, actions: np.ndarray, beta: float
) -> tuple[float, float]:
    rounds = actions.shape[0]
    f = actions.mean(axis=0)
    x = np.zeros(instance.n, dtype=np.float64)
    for t in range(rounds):
        q = actions[t].astype(np.float64)
        probs = _naive_conditional(instance, q, beta)
        x += np.where(actions[t], probs, 0.0)
    x /= rounds
    return float(x.sum()), float(f.sum())


def _naive_rayleigh_counterfactual(
    instance: SINRInstance, mask: np.ndarray, beta: float, gen: np.random.Generator
) -> np.ndarray:
    p = _naive_conditional(instance, mask.astype(np.float64), beta)
    return gen.random(instance.n) < p


def _naive_transformed_steps(
    channel: BlockFadingChannel, q: np.ndarray, num_steps: int,
    gen: np.random.Generator, repeats: int,
) -> np.ndarray:
    """The transformed step as a slot loop: one ``realize`` per slot."""
    out = np.zeros((num_steps, channel.n), dtype=bool)
    for t in range(num_steps):
        for _ in range(repeats):
            out[t] |= channel.realize(gen.random(channel.n) < q, gen)
    return out


def _naive_nonfading_counterfactual(
    instance: SINRInstance, mask: np.ndarray, beta: float
) -> np.ndarray:
    """The division-based had-I-sent test recomputed per call."""
    diag = instance.signal
    interference = mask.astype(np.float64) @ instance.gains - mask * diag
    denom = interference + instance.noise
    with np.errstate(divide="ignore"):
        sinr = np.where(denom > 0.0, diag / np.maximum(denom, 1e-300), np.inf)
    return sinr >= beta


def _naive_greedy_capacity(instance: SINRInstance, beta: float) -> np.ndarray:
    """Signal-order greedy with boolean-mask gathers of ``incoming`` and
    ``a[i, :]`` per candidate (the pre-admission-helper form)."""
    n = instance.n
    a = affectance_matrix(instance, beta, clamped=False)
    admitted: list[int] = []
    incoming = np.zeros(n, dtype=np.float64)
    admitted_mask = np.zeros(n, dtype=bool)
    for i in np.argsort(-instance.signal, kind="stable"):
        i = int(i)
        if instance.signal[i] <= beta * instance.noise:
            continue
        if not np.isfinite(incoming[i]) or incoming[i] > 1.0 + 1e-12:
            continue
        if admitted and np.any(incoming[admitted_mask] + a[i, admitted_mask] > 1.0 + 1e-12):
            continue
        admitted.append(i)
        admitted_mask[i] = True
        incoming += a[i, :]
    return np.array(sorted(admitted), dtype=np.intp)


def _naive_fixed_pattern(fields, start: int, mask: np.ndarray, max_rows: int):
    """``run_fixed_pattern`` evaluating every row of each window as its
    own pattern (the form before one Theorem-1 row per window)."""
    used, window = 0, 1
    while used < max_rows:
        m = min(window, max_rows - used)
        ok = fields.apply(start + used, np.broadcast_to(mask, (m, mask.size))) & mask
        hit_rows = ok.any(axis=1)
        if hit_rows.any():
            r = int(hit_rows.argmax())
            return used + r + 1, ok[r]
        used += m
        window = min(DEFAULT_SLOT_BLOCK, window * 2)
    return used, np.zeros(mask.size, dtype=bool)


def _naive_repeated_max(instance: SINRInstance, beta: float, channel, gen) -> int:
    """Repeated maximization re-planning from scratch: ``greedy_capacity``
    on a fresh subinstance of the unserved links every round, and
    per-row evaluation of each repeated pattern.  Returns the latency."""
    n = instance.n
    cap = 2 * n if channel.is_deterministic else 50 * n
    remaining = np.arange(n)
    slots = 0
    fields = SlotFieldBuffer(channel, gen)
    while remaining.size:
        chosen = remaining[greedy_capacity(instance.subinstance(remaining), beta)]
        mask = np.zeros(n, dtype=bool)
        mask[chosen] = True
        if channel.is_deterministic:
            used, ok = 1, fields.apply(slots, mask[None])[0] & mask
        else:
            used, ok = _naive_fixed_pattern(fields, slots, mask, cap - slots)
        slots += used
        fields.release(slots)
        remaining = remaining[~ok[remaining]]
    return slots


def _naive_algorithm1_trial(instance: SINRInstance, q: np.ndarray, beta: float, gen) -> tuple:
    """One Algorithm-1 trial stage by stage: a pattern draw and a
    ``(19, n)`` SINR product per stage (the pre-stacking form; same
    outcome and generator state as ``simulate_rayleigh_optimum``)."""
    n = instance.n
    success = np.zeros(n, dtype=bool)
    best_sinr = np.zeros(n, dtype=np.float64)
    slot_counts: list[int] = []
    block = resolve_replay_block(None)
    for b_k in b_sequence(n):
        stage_q = np.clip(q / (4.0 * b_k), 0.0, 1.0)
        for lo, hi in iter_slot_blocks(19, block):
            patterns = gen.random((hi - lo, n)) < stage_q
            sinr = instance.sinr_batch(patterns)
            finite_best = np.where(np.isinf(sinr), np.finfo(np.float64).max, sinr)
            best_sinr = np.maximum(best_sinr, finite_best.max(axis=0))
            hits = sinr >= beta
            success |= hits.any(axis=0)
            slot_counts.extend(hits.sum(axis=1).tolist())
    return success, best_sinr, np.asarray(slot_counts, dtype=np.int64)


def _naive_feasible_with(incoming, members, a, k) -> bool:
    if incoming[k] > 1.0 + 1e-12:
        return False
    return not (members.any() and np.any(incoming[members] + a[k, members] > 1.0 + 1e-12))


def _naive_local_search_capacity(
    instance: SINRInstance, beta: float, gen: np.random.Generator, restarts: int
) -> np.ndarray:
    """Local search with masked feasibility tests, a per-member blocker
    list and a per-element refinement walk (the pre-admission-helper
    form; same generator calls, same result)."""
    n = instance.n
    a = affectance_matrix(instance, beta, clamped=False)
    viable = instance.signal > beta * instance.noise
    a[:, ~viable] = 0.0

    def greedy_in_order(order):
        incoming = np.zeros(n, dtype=np.float64)
        members = np.zeros(n, dtype=bool)
        chosen: list[int] = []
        for k in order:
            k = int(k)
            if viable[k] and _naive_feasible_with(incoming, members, a, k):
                chosen.append(k)
                members[k] = True
                incoming += a[k, :]
        return chosen, members, incoming

    def refine(members):
        mask = members.copy()
        for _ in range(60):
            changed = False
            incoming = mask.astype(np.float64) @ a
            for i in gen.permutation(n):
                i = int(i)
                if not viable[i]:
                    continue
                want = incoming[i] <= 1.0 + 1e-12
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

    best: list[int] = []
    for restart in range(restarts):
        order = np.argsort(-instance.signal, kind="stable") if restart == 0 else gen.permutation(n)
        chosen, members, incoming = greedy_in_order(order)
        refined = refine(members)
        if refined.sum() >= members.sum():
            members = refined
            chosen = np.flatnonzero(members).tolist()
            incoming = members.astype(np.float64) @ a
        for _ in range(4):
            improved = False
            outside = [k for k in range(n) if viable[k] and not members[k]]
            gen.shuffle(outside)
            for k in outside:
                if members[k]:
                    continue
                if _naive_feasible_with(incoming, members, a, k):
                    chosen.append(k)
                    members[k] = True
                    incoming += a[k, :]
                    improved = True
                    continue
                blockers = [
                    j for j in chosen
                    if a[j, k] > 1e-12 or incoming[j] + a[k, j] > 1.0 + 1e-12
                ]
                if not blockers or len(blockers) > 3:
                    continue
                j = int(gen.choice(blockers))
                trial_members = members.copy()
                trial_members[j] = False
                trial_incoming = incoming - a[j, :]
                if not _naive_feasible_with(trial_incoming, trial_members, a, k):
                    continue
                trial_members[k] = True
                trial_incoming = trial_incoming + a[k, :]
                trial = [x for x in chosen if x != j] + [k]
                for m in range(n):
                    if viable[m] and not trial_members[m] and _naive_feasible_with(
                        trial_incoming, trial_members, a, m
                    ):
                        trial.append(m)
                        trial_members[m] = True
                        trial_incoming += a[m, :]
                if len(trial) > len(chosen):
                    chosen, members, incoming = trial, trial_members, trial_incoming
                    improved = True
            if not improved:
                break
        if len(chosen) > len(best):
            best = chosen
    return np.array(sorted(best), dtype=np.intp)


# ---------------------------------------------------------------------------
# Timing helpers.
# ---------------------------------------------------------------------------


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def name_selector(name_filter: "str | None", names) -> "Callable[[str], bool]":
    """The ``--filter`` rule over the bench ``names``: no filter selects
    every bench, a bench's full name selects that bench alone, and any
    other string selects the names that contain it."""
    if name_filter is None:
        return lambda name: True
    if name_filter in names:
        return lambda name: name == name_filter
    return lambda name: name_filter in name


class KernelPair(NamedTuple):
    """One (naive, fast) kernel pair, set up but not timed.  ``check``,
    if given, runs once before a selected pair is timed."""

    name: str
    naive: Callable
    fast: Callable
    calls: int = 1
    naive_repeats: "int | None" = None
    check: "Callable[[], None] | None" = None


def kernel_pairs(repeats: int) -> "list[KernelPair]":
    """Every (naive, fast) kernel pair, with its inputs built and warm."""
    pairs: "list[KernelPair]" = []

    def record(*args, **kwargs):
        pairs.append(KernelPair(*args, **kwargs))

    inst = _instance()
    gen = np.random.default_rng(0)
    actions = gen.random((T, N)) < 0.4
    mask = np.zeros(N, dtype=bool)
    mask[:40] = True
    patterns = gen.random((BATCH, N)) < 0.4

    ray = RayleighChannel(inst, BETA)
    nf = NonFadingChannel(inst, BETA)
    # Warm the cached tensors so "after" measures the steady state the
    # game/scheduler loops actually run in.
    ray.counterfactual(mask, np.random.default_rng(1))
    nf.counterfactual(mask)

    record(
        "expected_send_rewards_T2000_n100",
        lambda: _naive_expected_send_rewards(inst, actions, BETA),
        lambda: expected_send_rewards(inst, actions, BETA),
        naive_repeats=max(1, repeats // 2),
    )
    record(
        "lemma5_quantities_T2000_n100",
        lambda: _naive_lemma5(inst, actions, BETA),
        lambda: lemma5_quantities(inst, actions, BETA),
        naive_repeats=max(1, repeats // 2),
    )

    cf_calls = 200
    g1, g2 = np.random.default_rng(3), np.random.default_rng(3)
    record(
        "rayleigh_counterfactual_per_call",
        lambda: [
            _naive_rayleigh_counterfactual(inst, mask, BETA, g1)
            for _ in range(cf_calls)
        ],
        lambda: [ray.counterfactual(mask, g2) for _ in range(cf_calls)],
        calls=cf_calls,
    )
    record(
        "nonfading_counterfactual_per_call",
        lambda: [
            _naive_nonfading_counterfactual(inst, mask, BETA) for _ in range(cf_calls)
        ],
        lambda: [nf.counterfactual(mask) for _ in range(cf_calls)],
        calls=cf_calls,
    )

    g3, g4 = np.random.default_rng(4), np.random.default_rng(4)
    record(
        "rayleigh_counterfactual_batch_256",
        lambda: [
            _naive_rayleigh_counterfactual(inst, patterns[b], BETA, g3)
            for b in range(BATCH)
        ],
        lambda: ray.counterfactual_batch(patterns, g4),
    )

    def naive_block():
        ch, g = BlockFadingChannel(inst, BETA, block_length=BLOCK_L), np.random.default_rng(7)
        return [ch.realize(mask, g) for _ in range(BLOCK_SLOTS)]

    block_patterns = np.tile(mask, (BLOCK_SLOTS, 1))

    def fast_block():
        ch, g = BlockFadingChannel(inst, BETA, block_length=BLOCK_L), np.random.default_rng(7)
        return ch.realize_batch(block_patterns, g)

    record("block_fading_run_L16_512slots", naive_block, fast_block)

    s, r = paper_random_network(
        GAME_N, area=1000.0, min_length=0.0, max_length=100.0, rng=0
    )
    game_inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.1, 0.0)

    def scalar_game():
        gen = np.random.default_rng(11)
        players = [RWMLearner(child) for child in gen.spawn(GAME_N)]
        game = CapacityGame(game_inst, GAME_BETA, channel="rayleigh", rng=gen)
        return game.play(GAME_ROUNDS, learners=players)

    def default_game():
        game = CapacityGame(
            game_inst, GAME_BETA, channel="rayleigh", rng=np.random.default_rng(11)
        )
        return game.play(GAME_ROUNDS)

    record(
        f"capacity_game_T{GAME_ROUNDS}_n{GAME_N}",
        scalar_game,
        default_game,
        naive_repeats=max(1, repeats // 2),
    )

    s, r = paper_random_network(STEPS_N, area=1000.0 * (STEPS_N / 100.0) ** 0.5, rng=0)
    steps_inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
    q = np.full(STEPS_N, 0.3)
    record(
        f"block_transformed_steps_n{STEPS_N}",
        lambda: _naive_transformed_steps(
            BlockFadingChannel(steps_inst, BETA, block_length=STEPS_L),
            q, STEPS_NUM, np.random.default_rng(5), 4,
        ),
        lambda: BlockFadingChannel(
            steps_inst, BETA, block_length=STEPS_L
        ).transformed_steps(q, STEPS_NUM, np.random.default_rng(5), repeats=4),
    )

    # The capacity admission loops at the paper's n = 100: greedy as
    # repeated maximization calls it, local search as E18's lower bound
    # runs it (8 restarts).  Each pair returns the same set.
    greedy_calls = 20
    record(
        f"capacity_greedy_n{N}",
        lambda: [_naive_greedy_capacity(inst, BETA) for _ in range(greedy_calls)],
        lambda: [greedy_capacity(inst, BETA) for _ in range(greedy_calls)],
        calls=greedy_calls,
    )
    record(
        f"capacity_local_search_n{N}",
        lambda: _naive_local_search_capacity(inst, BETA, np.random.default_rng(6), 8),
        lambda: local_search_capacity(inst, BETA, np.random.default_rng(6), restarts=8),
    )

    # E8's six repeated-maximization runs on one paper network: one
    # non-fading, five Rayleigh trials on one shared channel.  Both sides
    # schedule the same slots.
    def e8_runs(run):
        ray_e8 = RayleighChannel(inst, BETA)
        lat = [run(NonFadingChannel(inst, BETA), None)]
        for t in range(5):
            ray_e8.reset()
            lat.append(run(ray_e8, np.random.default_rng(t)))
        return lat

    def naive_e8():
        return e8_runs(lambda ch, g: _naive_repeated_max(inst, BETA, ch, g))

    def fast_e8():
        return e8_runs(
            lambda ch, g: repeated_max_latency(inst, BETA, channel=ch, rng=g).latency
        )

    def e8_agree():
        assert naive_e8() == fast_e8()

    record(f"repeated_max_rayleigh_n{N}", naive_e8, fast_e8, check=e8_agree)

    # E6's Algorithm-1 trials, 200 at each size: one stacked product per
    # trial against a product per stage.  Both draw the same patterns.
    alg1 = [(_alg1_instance(n), np.full(n, ALG1_Q)) for n in ALG1_NS]

    def alg1_trials(trial):
        for alg1_inst, alg1_q in alg1:
            g = np.random.default_rng(8)
            for _ in range(ALG1_TRIALS):
                trial(alg1_inst, alg1_q, BETA, g)

    record(
        "algorithm1_trials_e6_sizes",
        lambda: alg1_trials(_naive_algorithm1_trial),
        lambda: alg1_trials(simulate_rayleigh_optimum),
        calls=ALG1_TRIALS * len(ALG1_NS),
    )
    return pairs


def measure_kernels(
    pairs: "list[KernelPair]", repeats: int, selects: "Callable[[str], bool]"
) -> dict:
    """Time the selected kernel pairs; returns the summary mapping (the
    caller merge-writes the baseline when a filter left some out)."""
    kernels: dict[str, dict] = {}
    for pair in pairs:
        if not selects(pair.name):
            continue
        if pair.check is not None:
            pair.check()
        before = _best_of(pair.naive, pair.naive_repeats or repeats) / pair.calls
        after = _best_of(pair.fast, repeats) / pair.calls
        kernels[pair.name] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / max(after, 1e-12),
        }
        print(
            f"  {pair.name:35s} {before:10.3e}s -> {after:10.3e}s   "
            f"({kernels[pair.name]['speedup']:6.1f}x)"
        )
    return kernels


def _alg1_instance(n: int) -> SINRInstance:
    """E6's geometry: ``n`` links on the paper's 1000 x 1000 square."""
    s, r = paper_random_network(n, rng=n)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


# ---------------------------------------------------------------------------
# Array-backend n-scaling sweep.
# ---------------------------------------------------------------------------


def _scaling_instance(n: int) -> SINRInstance:
    """Instance at density matched to the paper's geometry (area grows
    with n so the interference structure, not just the size, scales)."""
    s, r = paper_random_network(n, area=1000.0 * (n / 100.0) ** 0.5, rng=n)
    return SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)


def _scaling_modes() -> "list[tuple[str, BackendConfig]]":
    return [
        ("dense", BackendConfig()),
        (f"topk{SCALING_TOPK}", BackendConfig(topk=SCALING_TOPK)),
        ("float32", BackendConfig(dtype="float32")),
    ]


def paired_speedup(call, topk_scope, clock=time.perf_counter) -> "tuple[float, float, float]":
    """``(dense_s, topk_s, speedup)`` from ``SPARSE_FLOOR_PAIRS`` pairs.

    ``call`` runs dense outside ``topk_scope()`` and top-k inside it.
    The pairs alternate which side runs first
    (``bench_obs.paired_times``), so host drift lands on both sides of a
    pair instead of in its ratio; the speedup is the median per-pair
    ``dense / top-k`` ratio, which one slow timing cannot drag under the
    floor.  The seconds are each side's best time.
    """
    pairs = np.array(bench_obs.paired_times(call, topk_scope, SPARSE_FLOOR_PAIRS, clock=clock))
    dense_s, topk_s = pairs.min(axis=0)
    return float(dense_s), float(topk_s), float(np.median(pairs[:, 0] / pairs[:, 1]))


def scaling_names(ns: "tuple[int, ...]") -> "list[str]":
    return [f"scaling_n{n}_{m}" for n in ns for m, _ in _scaling_modes()]


def measure_scaling(
    repeats: int,
    ns: "tuple[int, ...]",
    selects: "Callable[[str], bool]",
) -> dict:
    """Throughput of ``counterfactual_batch`` per backend mode and size.

    Every mode at one ``n`` shares the instance, the pattern batch and
    the channel, whose kernel keeps one operator per backend config; a
    mode's calls run inside a ``run_scope`` with its backend config.  Deviations are
    measured on the *deterministic* Theorem-1 batch probabilities (no
    sampling noise), dense float64 being the reference.  From
    ``SPARSE_FLOOR_MIN_N`` on, the gated top-k speedup comes from
    :func:`paired_speedup`; elsewhere each mode is timed best-of.
    Entries are named ``scaling_n{n}_{mode}`` so ``--filter scaling``
    selects the whole sweep.
    """
    entries: "dict[str, dict]" = {}
    modes = _scaling_modes()
    topk = f"topk{SCALING_TOPK}"
    for n in ns:
        wanted = [m for m, _ in modes if selects(f"scaling_n{n}_{m}")]
        if not wanted:
            continue
        # The dense leg always runs when any mode at this n is wanted:
        # it is the speedup/deviation reference for the others.
        timed = {m: config for m, config in modes if m == "dense" or m in wanted}
        inst = _scaling_instance(n)
        gen = np.random.default_rng(n)
        pats = gen.random((SCALING_BATCH, n)) < 0.4
        channel = RayleighChannel(inst, BETA)
        call = partial(channel.counterfactual_batch, pats, np.random.default_rng(1))
        probs, seconds, speedups = {}, {}, {}
        for mode, config in timed.items():
            with run_scope(backend=config):
                # Warm: builds the log-factor tensor + the mode's operator,
                # and yields the deterministic output for the deviation column.
                probs[mode] = channel.kernel.conditional_batch(pats)
        if n >= SPARSE_FLOOR_MIN_N and topk in timed:
            seconds["dense"], seconds[topk], speedups[topk] = paired_speedup(
                call, partial(run_scope, backend=timed[topk])
            )
        reps = max(1, repeats if n <= 1000 else repeats // 2)
        for mode, config in timed.items():
            if mode not in seconds:
                with run_scope(backend=config):
                    seconds[mode] = _best_of(call, reps)
        for mode in wanted:
            name = f"scaling_n{n}_{mode}"
            entry = {
                "n": n,
                "mode": mode,
                "seconds": seconds[mode],
                "patterns_per_s": SCALING_BATCH / max(seconds[mode], 1e-12),
            }
            extra = ""
            if mode != "dense":
                entry["speedup_vs_dense"] = speedups.get(
                    mode, seconds["dense"] / max(seconds[mode], 1e-12)
                )
                entry["max_abs_dev"] = float(np.max(np.abs(probs[mode] - probs["dense"])))
                extra = (
                    f"  ({entry['speedup_vs_dense']:5.1f}x dense, "
                    f"dev {entry['max_abs_dev']:.2e})"
                )
            entries[name] = entry
            print(f"  {name:28s} {seconds[mode]:10.3e}s{extra}")
    return entries


def check_scaling(entries: dict) -> list[str]:
    """Compare scaling timings to the recorded baseline and enforce the
    sparse-speedup floor at large n; returns failure descriptions."""
    failures = []
    recorded = {}
    if SCALING_PATH.exists():
        recorded = json.loads(SCALING_PATH.read_text(encoding="utf-8")).get("entries", {})
    elif entries:
        failures.append(
            f"no recorded scaling baseline at {SCALING_PATH}; run without --check first"
        )
    for name, entry in entries.items():
        base = recorded.get(name)
        if base is not None and entry["seconds"] > REGRESSION_FACTOR * base["seconds"]:
            failures.append(
                f"{name}: {entry['seconds']:.3e}s vs recorded "
                f"{base['seconds']:.3e}s (>{REGRESSION_FACTOR:.0f}x regression)"
            )
        if (
            entry["n"] >= SPARSE_FLOOR_MIN_N
            and entry["mode"].endswith(f"topk{SCALING_TOPK}")
            and "speedup_vs_dense" in entry
            and entry["speedup_vs_dense"] < SPARSE_SPEEDUP_FLOOR
        ):
            failures.append(
                f"{name}: top-k sparse only {entry['speedup_vs_dense']:.1f}x dense "
                f"(floor {SPARSE_SPEEDUP_FLOOR:.0f}x at n >= {SPARSE_FLOOR_MIN_N})"
            )
    return failures


# ---------------------------------------------------------------------------
# Latency slot-loop kernels: sequential per-slot loop vs the block engine.
# ---------------------------------------------------------------------------


def _naive_slot_loop(channel, q_of_step, gen, executions: int, max_steps: int):
    """The pre-engine sequential contention loop — one
    ``channel.realize`` interpreter round trip per physical slot (the
    original ``_run_protocol`` form, generalized to a per-step
    probability function so it covers both ALOHA and the decay sweep)."""
    n = channel.n
    unserved = np.ones(n, dtype=bool)
    served_at = np.full(n, -1, dtype=np.int64)
    slots: list[np.ndarray] = []
    steps = 0
    while unserved.any():
        if steps >= max_steps:
            return False, slots, served_at
        q = q_of_step(steps)
        steps += 1
        for _ in range(executions):
            transmit = unserved & (gen.random(n) < q)
            slots.append(np.flatnonzero(transmit))
            if not transmit.any():
                continue
            ok = channel.realize(transmit, gen)
            newly = ok & unserved
            served_at[newly] = len(slots) - 1
            unserved &= ~ok
    return True, slots, served_at


def latency_name(bench: tuple) -> str:
    return f"latency_{bench[0]}_n{bench[1]}"


def measure_latency(
    repeats: int,
    benches: "tuple[tuple, ...]",
    selects: "Callable[[str], bool]",
) -> dict:
    """Sequential vs engine wall clock per contention scheduler and size.

    Both paths run the same warm Rayleigh channel (built once, kernel
    caches retained, ``reset()`` between runs — experiments reuse
    channels, so steady-state cost is the honest comparison) from the
    same seed, with the Section-4 ``repeats=4`` transformation.  The
    reference (``before_s``) is the retained pre-engine per-slot loop,
    or — for the ``engine_b1`` entries — the engine's own sequential
    ``slot_block=1`` execution.  Entries are named
    ``latency_{scheduler}_n{n}`` so ``--filter latency`` selects the
    sweep.
    """
    import math

    from repro.channel.spec import make_channel
    from repro.latency.aloha import _auto_probability
    from repro.latency.slotloop import run_contention

    kernels: dict[str, dict] = {}
    for bench in benches:
        name = latency_name(bench)
        if not selects(name):
            continue
        sched, n, side, reference, partial_steps, q_override = bench
        s, r = paper_random_network(n, area=side, rng=n)
        inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
        ch = make_channel("rayleigh", inst, BETA)
        sweep = max(1, int(math.ceil(math.log2(max(n, 2)))) + 1)
        if sched == "aloha":
            q = q_override if q_override is not None else _auto_probability(inst, BETA)
            q_of_step = lambda step, qv=q: qv
            full_steps = int(200 * n / q)
        else:
            q_of_step = lambda step, sl=sweep: 2.0 ** (-((step % sl) + 1))
            full_steps = 50 * n * sweep
        steps = partial_steps if partial_steps is not None else full_steps

        def engine_fn(qf=q_of_step, st=steps, c=ch, seed=n, block=None):
            c.reset()
            return run_contention(
                c, qf, np.random.default_rng(seed),
                executions=LATENCY_REPEATS, max_steps=st, slot_block=block,
            )

        if reference == "naive":
            def ref_fn(qf=q_of_step, st=steps, c=ch, seed=n):
                c.reset()
                return _naive_slot_loop(
                    c, qf, np.random.default_rng(seed), LATENCY_REPEATS, st
                )
        else:
            def ref_fn(run=engine_fn):
                return run(block=1)

        # Warm both paths once (kernel tensors, screen tables).
        engine_fn()
        reps = max(1, repeats if n <= 300 else (repeats // 2 if n <= 1000 else 1))
        before = _best_of(ref_fn, reps)
        after = _best_of(engine_fn, reps)
        kernels[name] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / max(after, 1e-12),
            "reference": reference,
            "side": side,
            "protocol_steps": steps if partial_steps is not None else "full",
        }
        print(
            f"  {name:35s} {before:10.3e}s -> {after:10.3e}s   "
            f"({kernels[name]['speedup']:6.1f}x)"
        )
    return kernels


def check_speedup_floors(kernels: dict) -> list[str]:
    """Enforce per-kernel speedup floors on the *measured* entries; a
    kernel without a ``KERNEL_EXPECTATIONS`` floor must not lose to its
    reference, and ``floor: None`` entries are exempt by annotation."""
    failures = []
    for name, entry in kernels.items():
        expectation = KERNEL_EXPECTATIONS.get(name, {})
        floor = expectation.get("floor", DEFAULT_SPEEDUP_FLOOR)
        if floor is None:
            continue
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup {entry['speedup']:.2f}x below floor {floor:.2f}x"
            )
    return failures


# ---------------------------------------------------------------------------
# Executor throughput: dispatch backend vs the process pool.
# ---------------------------------------------------------------------------

EXECUTOR_BENCH = "executor_dispatch_vs_pool_32tasks"
EXECUTOR_TASKS = 32
EXECUTOR_JOBS = 4
EXECUTOR_TASK_SLEEP = 0.01


def measure_executor(
    repeats: int, selects: "Callable[[str], bool]"
) -> dict:
    """One identical sweep end-to-end on the process pool (``before_s``)
    vs the dispatch backend with the same local worker count
    (``after_s``).  The tasks sleep a fixed 10ms so the entry measures
    orchestration overhead — queue files, claims, envelope streaming —
    not kernel arithmetic."""
    if not selects(EXECUTOR_BENCH):
        return {}
    import tempfile

    from repro.engine.backends import DispatchBackend
    from repro.engine.backends.dispatch import sleep_echo_task
    from repro.engine.executor import make_tasks, map_tasks

    tasks = make_tasks(
        [{"v": i, "sleep": EXECUTOR_TASK_SLEEP} for i in range(EXECUTOR_TASKS)],
        root_seed=0,
    )
    reps = max(1, repeats // 2)
    pool_s = _best_of(
        lambda: map_tasks(
            sleep_echo_task, tasks, jobs=EXECUTOR_JOBS, executor="pool",
            stage="bench-pool",
        ),
        reps,
    )
    with tempfile.TemporaryDirectory() as root:
        backend = DispatchBackend(
            root, local_workers=EXECUTOR_JOBS, poll=0.005
        )
        try:
            # Warm-up: spawns the local workers and pays their import cost
            # once, matching the pool measurement (best-of over repeats).
            map_tasks(sleep_echo_task, tasks[:EXECUTOR_JOBS],
                      executor=backend, stage="bench-warm")
            dispatch_s = _best_of(
                lambda: map_tasks(
                    sleep_echo_task, tasks, executor=backend,
                    stage="bench-dispatch",
                ),
                reps,
            )
        finally:
            backend.close()
    entry = {
        "before_s": pool_s,
        "after_s": dispatch_s,
        "speedup": pool_s / max(dispatch_s, 1e-12),
    }
    print(
        f"  {EXECUTOR_BENCH:35s} {pool_s:10.3e}s -> {dispatch_s:10.3e}s   "
        f"({entry['speedup']:6.1f}x)"
    )
    return {EXECUTOR_BENCH: entry}


def run_pytest_benches() -> dict:
    """Run ``pytest benchmarks/`` — every registered experiment at quick
    scale (``bench_experiments.py``), the kernel benchmarks and the e2e
    harness's tests; record outcome and duration."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(BENCH_DIR)],
        cwd=BENCH_DIR.parent,
    )
    return {
        "passed": proc.returncode == 0,
        "seconds": time.perf_counter() - start,
    }


def check_against_baseline(kernels: dict) -> list[str]:
    """Compare fast-path timings to the recorded summary; list failures."""
    if not SUMMARY_PATH.exists():
        return [f"no recorded baseline at {SUMMARY_PATH}; run without --check first"]
    recorded = json.loads(SUMMARY_PATH.read_text(encoding="utf-8"))["kernels"]
    failures = []
    for name, entry in kernels.items():
        base = recorded.get(name)
        if base is None:
            continue
        if entry["after_s"] > REGRESSION_FACTOR * base["after_s"]:
            failures.append(
                f"{name}: {entry['after_s']:.3e}s vs recorded "
                f"{base['after_s']:.3e}s (>{REGRESSION_FACTOR:.0f}x regression)"
            )
    return failures


def _merge_write(path: Path, fresh: dict, key: str, config: dict) -> None:
    """Write a baseline file, merging ``fresh`` into any recorded entries
    under ``key`` — a ``--filter`` run must not clobber what it skipped."""
    doc = {"config": config, key: fresh}
    if path.exists():
        recorded = json.loads(path.read_text(encoding="utf-8"))
        merged = dict(recorded.get(key, {}))
        merged.update(fresh)
        doc = dict(recorded)
        doc["config"] = config
        doc[key] = merged
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer timing repeats, the short scaling sweep, and skip "
        "pytest benchmarks/",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the recorded BENCH_summary.json / "
        "BENCH_scaling.json instead of rewriting them; exit 1 on a >5x "
        "fast-path regression or a sparse speedup below the floor",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="NAME",
        help="only the bench named NAME, or else the benches whose name "
        "contains NAME (partial runs merge into the recorded baselines)",
    )
    args = parser.parse_args(argv)

    repeats = 3 if args.quick else 7
    ns = SCALING_NS_QUICK if args.quick else SCALING_NS
    benches = (
        LATENCY_BENCHES_QUICK
        if args.quick
        else LATENCY_BENCHES_QUICK + LATENCY_BENCHES
    )
    pairs = kernel_pairs(repeats)
    names = [
        *(pair.name for pair in pairs),
        *scaling_names(ns),
        *map(latency_name, benches),
        EXECUTOR_BENCH,
        "bench_obs",
    ]
    selects = name_selector(args.filter, names)
    if not any(map(selects, names)):
        print(
            f"--filter {args.filter!r} matched no bench; known names:",
            file=sys.stderr,
        )
        for name in names:
            print(f"  {name}", file=sys.stderr)
        return 2

    print(f"timing hot-path kernels (n={N}, T={T}, batch={BATCH}) ...")
    kernels = measure_kernels(pairs, repeats, selects)

    print(
        f"timing backend n-scaling (counterfactual_batch, batch={SCALING_BATCH}, "
        f"topk={SCALING_TOPK}, n in {ns}) ..."
    )
    scaling = measure_scaling(repeats, ns, selects)

    print(
        f"timing latency slot-loop kernels (rayleigh, repeats={LATENCY_REPEATS}, "
        f"{len(benches)} configs) ..."
    )
    kernels.update(measure_latency(repeats, benches, selects))

    print(
        f"timing executor throughput (pool vs dispatch, {EXECUTOR_TASKS} tasks, "
        f"{EXECUTOR_JOBS} workers) ..."
    )
    kernels.update(measure_executor(repeats, selects))

    obs_results = None
    if selects("bench_obs"):
        print("timing telemetry overhead (bench_obs) ...")
        obs_results = bench_obs.measure_overhead(repeats)

    summary = {
        "config": {"n": N, "T": T, "batch": BATCH, "beta": BETA,
                   "block_length": BLOCK_L, "block_slots": BLOCK_SLOTS},
        "kernels": kernels,
    }

    if not args.quick and args.filter is None:
        print("running pytest benchmarks/ ...")
        summary["pytest_benches"] = run_pytest_benches()
        if not summary["pytest_benches"]["passed"]:
            print("pytest benches FAILED", file=sys.stderr)
            return 1

    if args.check:
        failures = check_against_baseline(kernels)
        failures += check_speedup_floors(kernels)
        failures += check_scaling(scaling)
        if obs_results is not None:
            failures += bench_obs.check_overhead(obs_results)
        if failures:
            for line in failures:
                print("PERF REGRESSION:", line, file=sys.stderr)
            return 1
        print("perf check passed: every fast path within "
              f"{REGRESSION_FACTOR:.0f}x of its recorded baseline and above "
              "its speedup floor, sparse "
              f"top-k >= {SPARSE_SPEEDUP_FLOOR:.0f}x dense at n >= "
              f"{SPARSE_FLOOR_MIN_N}, and telemetry overhead within "
              f"{bench_obs.OVERHEAD_BUDGET:.0%}")
        return 0

    if args.filter is None:
        SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {SUMMARY_PATH}")
    else:
        _merge_write(SUMMARY_PATH, kernels, "kernels", summary["config"])
    _merge_write(
        SCALING_PATH,
        scaling,
        "entries",
        {
            "batch": SCALING_BATCH,
            "topk": SCALING_TOPK,
            "beta": BETA,
            "sparse_speedup_floor": SPARSE_SPEEDUP_FLOOR,
            "sparse_floor_min_n": SPARSE_FLOOR_MIN_N,
        },
    )
    if obs_results is not None:
        bench_obs.write_baseline(obs_results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
