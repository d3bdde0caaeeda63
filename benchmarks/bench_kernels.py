"""Performance microbenchmarks of the library's hot kernels.

These time the vectorized primitives that every experiment is built on,
at paper scale (n = 100–200 links), so performance regressions in the
numerical core are caught independently of the experiment drivers.
"""

import time

import numpy as np
import pytest

from repro.capacity.greedy import greedy_capacity
from repro.capacity.optimum import local_search_capacity
from repro.channel.rayleigh import RayleighChannel
from repro.core.affectance import affectance_matrix
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance, mean_signal_matrix
from repro.fading.models import RayleighFading, simulate_sinr_patterns, simulate_slots
from repro.fading.success import (
    success_probability,
    success_probability_conditional_batch,
)
from repro.geometry.placement import paper_random_network
from repro.learning.game import CapacityGame
from repro.transform.simulation import simulate_rayleigh_optimum

BETA = 2.5


@pytest.fixture(scope="module")
def net100() -> Network:
    s, r = paper_random_network(100, rng=0)
    return Network(s, r)


@pytest.fixture(scope="module")
def inst100(net100) -> SINRInstance:
    return SINRInstance.from_network(net100, UniformPower(2.0), 2.2, 4e-7)


def test_gain_matrix_build(benchmark, net100):
    benchmark(mean_signal_matrix, net100, UniformPower(2.0), 2.2)


def test_sinr_batch_100x256(benchmark, inst100):
    patterns = np.random.default_rng(1).random((256, 100)) < 0.5
    benchmark(inst100.sinr_batch, patterns)


def test_theorem1_success_probability(benchmark, inst100):
    q = np.full(100, 0.5)
    benchmark(success_probability, inst100, q, BETA)


def test_theorem1_conditional_batch_256(benchmark, inst100):
    patterns = np.random.default_rng(2).random((256, 100)) < 0.5
    benchmark(success_probability_conditional_batch, inst100, patterns, BETA)


def test_affectance_matrix(benchmark, inst100):
    benchmark(affectance_matrix, inst100, BETA)


def test_fading_sample_100_slots(benchmark, inst100):
    gen = np.random.default_rng(3)
    benchmark(RayleighFading().sample, inst100.gains, gen, 100)


def test_bernoulli_slots_1000(benchmark, inst100):
    """The Bernoulli fast path: 1000 slots of one 40-link pattern."""
    patterns = np.zeros((1000, 100), dtype=bool)
    patterns[:, :40] = True
    channel = RayleighChannel(inst100, BETA)
    gen = np.random.default_rng(4)
    benchmark(channel.realize_batch, patterns, gen)


def _loop_success_counts(inst, qv, beta, gen, num_samples):
    """The seed repository's Monte-Carlo inner loop: one
    ``simulate_slots`` call per drawn transmit pattern.  Kept verbatim as
    the baseline the batched kernel is measured against."""
    counts = np.zeros(inst.n, dtype=np.int64)
    batch = 64
    done = 0
    while done < num_samples:
        t = min(batch, num_samples - done)
        patterns = gen.random((t, inst.n)) < qv
        for row in patterns:
            if row.any():
                counts += simulate_slots(inst, row, beta, gen, num_slots=1)[0]
        done += t
    return counts


def _batched_success_counts(inst, qv, beta, gen, num_samples):
    patterns = gen.random((num_samples, inst.n)) < qv
    sinr = simulate_sinr_patterns(inst, patterns, gen)
    return ((sinr >= beta) & patterns).sum(axis=0)


def test_batched_mc_kernel_speedup(inst100):
    """The batched per-sender Monte-Carlo kernel (one ``(T, n)`` draw and
    one ``(T, n) @ (n, n)`` product) must beat the seed's per-pattern
    Python loop by >= 3x at n=100, T=1000 (it measures ~10x+ in
    practice; the margin absorbs machine noise)."""
    qv = np.full(100, 0.5)
    num_samples = 1000
    # Warm-up both paths once so allocator/first-call costs don't skew.
    _loop_success_counts(inst100, qv, BETA, np.random.default_rng(0), 64)
    _batched_success_counts(inst100, qv, BETA, np.random.default_rng(0), 64)

    def best_of(fn, repeats=3):
        times = []
        for rep in range(repeats):
            gen = np.random.default_rng(100 + rep)
            start = time.perf_counter()
            fn(inst100, qv, BETA, gen, num_samples)
            times.append(time.perf_counter() - start)
        return min(times)

    loop_time = best_of(_loop_success_counts)
    batched_time = best_of(_batched_success_counts)
    speedup = loop_time / batched_time
    print(
        f"\nbatched MC kernel: loop {loop_time * 1e3:.1f} ms, "
        f"batched {batched_time * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0, f"batched kernel only {speedup:.2f}x faster than loop"


def test_sinr_patterns_batched_1000(benchmark, inst100):
    gen = np.random.default_rng(8)
    patterns = gen.random((1000, 100)) < 0.5
    benchmark(simulate_sinr_patterns, inst100, patterns, gen)


def test_greedy_capacity_n100(benchmark, inst100):
    benchmark(greedy_capacity, inst100, BETA)


def test_local_search_n100(benchmark, inst100):
    benchmark.pedantic(
        local_search_capacity, args=(inst100, BETA),
        kwargs={"rng": 5, "restarts": 3}, rounds=3, iterations=1,
    )


def test_algorithm1_simulation_n100(benchmark, inst100):
    q = np.full(100, 0.5)
    gen = np.random.default_rng(6)
    benchmark(simulate_rayleigh_optimum, inst100, q, BETA, gen)


def test_capacity_game_50_rounds_n100(benchmark, inst100):
    def run():
        return CapacityGame(inst100, BETA, channel="rayleigh", rng=7).play(50)

    benchmark.pedantic(run, rounds=3, iterations=1)
