"""The perf-regression gate in ``benchmarks/run_all.py``.

The bench harness is a script, not a package module, so it is loaded by
file path.  These tests pin the ``--check`` floor semantics: a measured
speedup below its per-kernel floor (default 1.0 — a fast path must not
lose to its reference) is a failure, and only kernels explicitly
annotated ``floor: None`` in ``KERNEL_EXPECTATIONS`` are exempt.  The
telemetry gate (``benchmarks/bench_obs.py``) and the sparse-speedup
floor are pinned on a fake clock: interleaved pairs cancel host drift,
yet still catch a 6% overhead against the 5% budget and a top-k path
under the 3x floor.  A ``--filter`` that names a bench in full selects
that bench alone.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

_RUN_ALL = Path(__file__).resolve().parents[1] / "benchmarks" / "run_all.py"


@pytest.fixture(scope="module")
def run_all():
    # The harness imports its sibling bench_obs, as it does run as a script.
    sys.path.insert(0, str(_RUN_ALL.parent))
    try:
        spec = importlib.util.spec_from_file_location("bench_run_all", _RUN_ALL)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(_RUN_ALL.parent))
    return mod


def test_synthetic_below_floor_entry_fails(run_all):
    kernels = {"latency_aloha_n1000": {"before_s": 1.0, "after_s": 0.5, "speedup": 2.0}}
    failures = run_all.check_speedup_floors(kernels)
    assert len(failures) == 1
    assert "latency_aloha_n1000" in failures[0]
    assert "floor" in failures[0]


def test_default_floor_is_must_improve(run_all):
    # A kernel with no KERNEL_EXPECTATIONS entry must beat its reference.
    assert run_all.check_speedup_floors({"unlisted_kernel": {"speedup": 0.9}})
    assert not run_all.check_speedup_floors({"unlisted_kernel": {"speedup": 1.2}})


def test_at_floor_passes(run_all):
    floor = run_all.KERNEL_EXPECTATIONS["latency_decay_n1000"]["floor"]
    assert not run_all.check_speedup_floors({"latency_decay_n1000": {"speedup": floor}})
    assert run_all.check_speedup_floors(
        {"latency_decay_n1000": {"speedup": floor - 0.01}}
    )


def test_dispatch_tradeoff_kernel_is_annotated_not_silent(run_all):
    entry = run_all.KERNEL_EXPECTATIONS["executor_dispatch_vs_pool_32tasks"]
    assert entry["floor"] is None
    assert "note" in entry and entry["note"]
    # Exempt by annotation: its known sub-1.0 speedup does not fail.
    assert not run_all.check_speedup_floors(
        {"executor_dispatch_vs_pool_32tasks": {"speedup": 0.71}}
    )


def test_enforced_latency_floors_present(run_all):
    # The acceptance floors of the batched slot-loop work.
    assert run_all.KERNEL_EXPECTATIONS["latency_aloha_n1000"]["floor"] >= 5.0
    assert run_all.KERNEL_EXPECTATIONS["latency_decay_n1000"]["floor"] >= 5.0
    assert run_all.KERNEL_EXPECTATIONS["latency_aloha_n300"]["floor"] >= 3.0
    assert run_all.KERNEL_EXPECTATIONS["latency_decay_n300"]["floor"] >= 3.0


def test_filter_full_name_selects_that_entry_only(run_all):
    names = [run_all.latency_name(b) for b in run_all.LATENCY_BENCHES]
    aloha = ["latency_aloha_n100", "latency_aloha_n1000", "latency_aloha_n10000"]
    assert aloha == [name for name in names if "aloha" in name]

    def chosen(name_filter):
        selects = run_all.name_selector(name_filter, names)
        return [name for name in names if selects(name)]

    assert chosen("latency_aloha_n100") == ["latency_aloha_n100"]
    assert chosen("latency_aloha_n1000") == ["latency_aloha_n1000"]
    # Partial names keep substring selection.
    assert chosen("latency_aloha_n10") == aloha
    assert chosen("aloha") == aloha
    assert chosen(None) == names
    assert chosen("no_such_bench") == []


def test_filter_matching_nothing_exits_before_timing(run_all, capsys, monkeypatch):
    monkeypatch.setattr(run_all, "measure_kernels", None)  # must not be reached
    assert run_all.main(["--quick", "--filter", "no_such_bench"]) == 2
    err = capsys.readouterr().err
    assert "matched no bench" in err
    assert "block_transformed_steps_n60" in err and "latency_aloha_n300" in err


# -- telemetry-overhead gate (benchmarks/bench_obs.py) -------------------

_BENCH_OBS = _RUN_ALL.parent / "bench_obs.py"


@pytest.fixture(scope="module")
def bench_obs():
    spec = importlib.util.spec_from_file_location("bench_obs_gate", _BENCH_OBS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class _Host:
    """Fake clock whose work gets ``drift`` slower on every call; work
    done inside the telemetry scope costs ``overhead`` more."""

    def __init__(self, drift: float, overhead: float = 0.0):
        self.now, self.cost = 0.0, 0.01
        self.drift, self.overhead = drift, overhead
        self.scoped = False

    def clock(self) -> float:
        return self.now

    def work(self) -> None:
        self.now += self.cost * (1.0 + self.overhead if self.scoped else 1.0)
        self.cost *= 1.0 + self.drift

    @contextlib.contextmanager
    def scope(self):
        self.scoped = True
        try:
            yield
        finally:
            self.scoped = False


def _gate(bench_obs, entry) -> "list[str]":
    return bench_obs.check_overhead({"kernel": entry})


def test_synthetic_six_percent_overhead_fails(bench_obs):
    pairs = [(t, t * 1.06) for t in (0.010, 0.011, 0.0105, 0.0098, 0.0102)]
    entry = bench_obs.overhead_entry(pairs)
    assert entry["overhead"] == pytest.approx(0.06)
    assert len(_gate(bench_obs, entry)) == 1
    assert bench_obs.OVERHEAD_BUDGET == 0.05


def test_interleaved_pairs_cancel_host_drift(bench_obs):
    """No overhead on a host slowing 1.5% per call: the interleaved
    reading passes, while timing all "off" runs and then all "on" runs
    on the same host reads about +11% and would have failed."""
    repeats = 7
    host = _Host(drift=0.015)
    pairs = bench_obs.paired_times(host.work, host.scope, repeats, clock=host.clock)
    assert _gate(bench_obs, bench_obs.overhead_entry(pairs)) == []

    host = _Host(drift=0.015)
    blocks = []
    for scoped in (False, True):
        host.scoped = scoped
        times = []
        for _ in range(repeats):
            start = host.clock()
            host.work()
            times.append(host.clock() - start)
        blocks.append(min(times))
    off, on = blocks
    block_entry = {"off_s": off, "on_s": on, "overhead": on / off - 1.0}
    assert block_entry["overhead"] > 0.05
    assert len(_gate(bench_obs, block_entry)) == 1


def test_interleaved_pairs_still_catch_six_percent_under_drift(bench_obs):
    host = _Host(drift=0.015, overhead=0.06)
    pairs = bench_obs.paired_times(host.work, host.scope, 7, clock=host.clock)
    assert len(_gate(bench_obs, bench_obs.overhead_entry(pairs))) == 1


# -- sparse-speedup floor (benchmarks/run_all.py) ------------------------


def _floor_entry(run_all, speedup: float) -> dict:
    n = run_all.SPARSE_FLOOR_MIN_N
    mode = f"topk{run_all.SCALING_TOPK}"
    return {f"scaling_n{n}_{mode}": {
        "n": n, "mode": mode, "seconds": 0.0, "speedup_vs_dense": speedup,
    }}


def test_sparse_floor_pairs_cancel_host_drift(run_all):
    """Top-k 3.3x faster than dense on a host slowing 1.5% per call: the
    median of the alternating pairs passes the 3x floor, while timing
    every dense run and then every top-k run on the same host reads
    under 3x and would have failed."""
    cost = 1.0 / 3.3
    host = _Host(drift=0.015, overhead=cost - 1.0)  # the scope is top-k
    dense_s, topk_s, speedup = run_all.paired_speedup(
        host.work, host.scope, clock=host.clock
    )
    assert speedup == pytest.approx(3.3, rel=0.02)
    assert dense_s / topk_s == pytest.approx(3.3, rel=0.05)
    assert run_all.check_scaling(_floor_entry(run_all, speedup)) == []

    host = _Host(drift=0.015, overhead=cost - 1.0)
    best = []
    for scoped in (False, True):
        host.scoped = scoped
        times = []
        for _ in range(run_all.SPARSE_FLOOR_PAIRS):
            start = host.clock()
            host.work()
            times.append(host.clock() - start)
        best.append(min(times))
    block_speedup = best[0] / best[1]
    assert block_speedup < run_all.SPARSE_SPEEDUP_FLOOR
    assert len(run_all.check_scaling(_floor_entry(run_all, block_speedup))) == 1


def test_sparse_floor_pairs_still_catch_a_slow_topk_under_drift(run_all):
    host = _Host(drift=0.015, overhead=1.0 / 2.7 - 1.0)
    _, _, speedup = run_all.paired_speedup(host.work, host.scope, clock=host.clock)
    assert speedup == pytest.approx(2.7, rel=0.02)
    assert len(run_all.check_scaling(_floor_entry(run_all, speedup))) == 1
