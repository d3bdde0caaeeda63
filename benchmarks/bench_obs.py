"""Telemetry-overhead benchmark: instrumented kernels, sink on vs off.

The observability layer promises that its instrumentation is near-free:
every hot-path report is a module-level call whose inactive fast path is
one ``None`` check (:mod:`repro.obs.metrics`).  This bench measures the
*active* cost — the same kernel workloads timed with no sink installed
and then inside an ``obs_scope`` with a metrics registry collecting —
and records both timings plus the relative overhead::

    PYTHONPATH=src python benchmarks/bench_obs.py           # measure, rewrite BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs.py --check   # fail (exit 1) when overhead > 5%

``benchmarks/run_all.py`` runs the same measurement: a full run rewrites
the ``BENCH_obs.json`` baseline, and ``run_all.py --check`` fails on an
overhead budget violation exactly like ``--check`` here.

Workloads cover the two kernel families the acceptance bar names: the
Theorem-1 batched conditional kernel (counter per call + per pattern
row) and the Monte-Carlo SINR sampler (counter per slot batch) — plus,
since the live-observability work, one end-to-end sweep on the
**dispatch executor** (2 local workers) with the full monitored stack
on: metrics, stitched span collection, and the event bus with
heartbeats.  Off and on runs alternate in pairs (:func:`paired_times`),
and the overhead is the median of the per-pair ``on / off`` ratios, so
host drift during the measurement cannot pass for telemetry cost.  The
overhead check also requires the absolute slowdown (that overhead times
the median "off" time) to exceed a per-entry floor (``floor_s``, default
:data:`ABSOLUTE_FLOOR_S`) so timer noise — much larger for the
file-queue dispatch path than for in-process kernels — cannot fail CI.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.fading.models import simulate_sinr_patterns
from repro.fading.success import Theorem1Kernel
from repro.geometry.placement import paper_random_network
from repro.obs import MetricsRegistry, Telemetry, obs_scope

BENCH_DIR = Path(__file__).resolve().parent
BASELINE_PATH = BENCH_DIR / "BENCH_obs.json"

N = 100
BATCH = 256
MC_SLOTS = 512
BETA = 2.5
#: Kernel invocations per timed call — keeps one measurement at several
#: milliseconds so the relative overhead is resolvable above timer noise.
INNER_CALLS = {"theorem1": 32, "mc": 4}

#: ``--check`` fails when telemetry makes a kernel more than 5% slower ...
OVERHEAD_BUDGET = 0.05
#: ... provided the absolute slowdown also exceeds this floor (seconds);
#: below it the "overhead" is indistinguishable from timer noise.
ABSOLUTE_FLOOR_S = 2e-4

#: Off/on pairs per timing repeat for the kernel workloads.  One pair's
#: on/off ratio spreads widely on a shared 2-vCPU host (5th-95th
#: percentile 0.6-1.3 in one 80-pair sample), so the median of three
#: pairs read above the 5% budget about one time in five with no
#: telemetry cost at all; fifteen pairs bring that near one in thirty.
PAIRS_PER_REPEAT = 5

#: Dispatch-overhead workload: a sleep-task sweep on the file-queue
#: backend with the whole monitored stack on (metrics + span collection
#: + event bus with heartbeats) vs the same sweep dark.
DISPATCH_TASKS = 24
DISPATCH_WORKERS = 2
DISPATCH_SLEEP = 0.005
#: Dispatch wall-clock is dominated by queue file churn and worker
#: polling, which jitter far beyond the kernel floor; the entry carries
#: its own absolute floor so only a real regression can fail ``--check``.
DISPATCH_FLOOR_S = 0.15


def paired_times(fn, scope, repeats: int, clock=time.perf_counter):
    """``repeats`` pairs of ``(off_s, on_s)``: ``fn`` timed bare and
    inside a fresh ``scope()``, alternately.

    The two sides of a pair run back to back, and every other pair runs
    "on" first, so host drift lands on both sides instead of in the
    ratio.  Entering and leaving the scope stays outside the timer, and
    one untimed run first keeps first-call costs off the "off" side.
    """
    fn()
    pairs = []
    for k in range(repeats):
        times = {}
        for on in (False, True) if k % 2 == 0 else (True, False):
            with scope() if on else contextlib.nullcontext():
                start = clock()
                fn()
                times[on] = clock() - start
        pairs.append((times[False], times[True]))
    return pairs


def overhead_entry(pairs) -> dict:
    """Median off and on times, and the overhead as the median of the
    per-pair ``on / off`` ratios minus one."""
    off, on = np.array(pairs).T
    return {
        "off_s": float(np.median(off)),
        "on_s": float(np.median(on)),
        "overhead": float(np.median(on / off)) - 1.0,
        "pairs": len(pairs),
    }


def _report(name: str, entry: dict) -> None:
    print(
        f"  {name:42s} off {entry['off_s']:9.3e}s  on {entry['on_s']:9.3e}s  "
        f"({entry['overhead']:+7.2%}, {entry['pairs']} pairs)"
    )


def _workloads():
    """Named thunks over the instrumented kernels, pre-warmed."""
    s, r = paper_random_network(N, rng=0)
    inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
    patterns = np.random.default_rng(1).random((BATCH, N)) < 0.4
    mc_patterns = np.random.default_rng(2).random((MC_SLOTS, N)) < 0.4

    kernel = Theorem1Kernel(inst, BETA)
    kernel.conditional_batch(patterns)  # build the cached tensors once

    def theorem1():
        for _ in range(INNER_CALLS["theorem1"]):
            kernel.conditional_batch(patterns)

    def monte_carlo():
        for _ in range(INNER_CALLS["mc"]):
            simulate_sinr_patterns(inst, mc_patterns, rng=np.random.default_rng(3))

    return {
        f"theorem1_conditional_batch_{BATCH}x{N}": theorem1,
        f"mc_simulate_sinr_patterns_{MC_SLOTS}x{N}": monte_carlo,
    }


def measure_overhead(repeats: int = 7) -> dict:
    """Time each workload with telemetry off and on; return the mapping."""
    results: dict[str, dict] = {}
    telemetry = Telemetry(metrics=MetricsRegistry())
    for name, fn in _workloads().items():
        results[name] = overhead_entry(
            paired_times(
                fn, lambda: obs_scope(telemetry), PAIRS_PER_REPEAT * repeats
            )
        )
        _report(name, results[name])
    results.update(measure_dispatch_overhead(repeats))
    return results


def measure_dispatch_overhead(repeats: int = 7) -> dict:
    """Time one sweep on the dispatch executor, dark vs fully monitored.

    The "on" measurement runs the complete live-observability stack a
    ``repro run --executor dispatch --monitor --trace --metrics``
    invocation would: a metrics registry, a tracer (so workers buffer
    task spans and the dispatcher stitches them), and an event bus under
    the runs root (task lifecycle, heartbeats from dispatcher and
    workers).  One warm backend serves both measurements so worker
    spawn/import cost cancels out.
    """
    import tempfile

    from repro.engine.backends import DispatchBackend
    from repro.engine.backends.dispatch import sleep_echo_task
    from repro.engine.executor import make_tasks, map_tasks
    from repro.obs import EventBus, TraceWriter

    tasks = make_tasks(
        [{"v": i, "sleep": DISPATCH_SLEEP} for i in range(DISPATCH_TASKS)],
        root_seed=0,
    )
    reps = max(2, repeats // 2)
    with tempfile.TemporaryDirectory() as root:
        backend = DispatchBackend(
            root, local_workers=DISPATCH_WORKERS, poll=0.005
        )
        scopes = itertools.count()

        def monitored():
            # The scope closes its trace writer and event bus on exit, so
            # every "on" run gets its own.
            k = next(scopes)
            return obs_scope(
                Telemetry(
                    tracer=TraceWriter(Path(root) / f"trace-{k}.jsonl"),
                    metrics=MetricsRegistry(),
                    events=EventBus(Path(root) / "events", f"bench-run-{k}"),
                )
            )

        try:
            map_tasks(sleep_echo_task, tasks[:DISPATCH_WORKERS],
                      executor=backend, stage="bench-warm")
            pairs = paired_times(
                lambda: map_tasks(sleep_echo_task, tasks, executor=backend,
                                  stage="bench"),
                monitored,
                reps,
            )
        finally:
            backend.close()
    name = f"dispatch_sweep_{DISPATCH_TASKS}tasks_{DISPATCH_WORKERS}workers"
    entry = {**overhead_entry(pairs), "floor_s": DISPATCH_FLOOR_S}
    _report(name, entry)
    return {name: entry}


def check_overhead(results: dict) -> "list[str]":
    """Budget violations in ``results`` (empty list = within budget).

    Each entry may carry its own absolute-slowdown ``floor_s`` (the
    dispatch sweep does — file-queue wall clock jitters well beyond the
    kernel noise floor); entries without one use the kernel default.
    """
    failures = []
    for name, entry in results.items():
        # The absolute slowdown the gated ratio implies at the median
        # "off" time.
        slow = entry["overhead"] * entry["off_s"]
        if entry["overhead"] > OVERHEAD_BUDGET and slow > entry.get(
            "floor_s", ABSOLUTE_FLOOR_S
        ):
            failures.append(
                f"{name}: telemetry overhead {entry['overhead']:+.2%} "
                f"(+{slow:.3e}s) exceeds the {OVERHEAD_BUDGET:.0%} budget"
            )
    return failures


def write_baseline(results: dict) -> None:
    """Record the measured overheads as ``BENCH_obs.json``."""
    doc = {
        "config": {
            "n": N,
            "batch": BATCH,
            "mc_slots": MC_SLOTS,
            "beta": BETA,
            "overhead_budget": OVERHEAD_BUDGET,
            "dispatch_tasks": DISPATCH_TASKS,
            "dispatch_workers": DISPATCH_WORKERS,
        },
        "kernels": results,
    }
    BASELINE_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer timing repeats"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when telemetry overhead exceeds the budget instead of "
        "rewriting BENCH_obs.json",
    )
    args = parser.parse_args(argv)

    repeats = 3 if args.quick else 7
    print(f"timing telemetry overhead (n={N}, batch={BATCH}, mc_slots={MC_SLOTS}) ...")
    results = measure_overhead(repeats)

    if args.check:
        failures = check_overhead(results)
        if failures:
            for line in failures:
                print("TELEMETRY OVERHEAD:", line, file=sys.stderr)
            return 1
        print(f"telemetry overhead check passed (budget {OVERHEAD_BUDGET:.0%})")
        return 0

    write_baseline(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
