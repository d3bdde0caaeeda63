"""End-to-end benchmark: how long a user waits for ``repro run``, and where
that time goes by layer.

Usage, from the repository root::

    python3 benchmarks/e2e/bench.py --workload latency_paper --seed 3
    python3 benchmarks/e2e/bench.py --workload sweeps_pool --trace 1
    python3 benchmarks/e2e/bench.py                  # every workload, round-robin
    python3 benchmarks/e2e/bench.py --record         # rewrite BENCH_e2e.json
    python3 benchmarks/e2e/bench.py --write-digests  # rewrite digests.json

Every pass is a fresh ``python`` process running ``repro.cli.main``
(through :mod:`passrun`), because a user pays the imports on every
``repro run``.  Passes repeat until ``--seconds`` is spent; a pass is
not started when the previous pass of its kind says it would overrun.
With ``--trace 0`` the passes are untraced and the command reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` untraced
and traced passes alternate and it reports the per-layer metrics.

Each pass is checked: an experiment fails on a non-zero exit, a FAIL
verdict in ``summary.json``, or a result file whose sha256 differs from
``digests.json`` (default seed) or from what earlier passes with the
same scale and seed wrote (any other seed; remembered across
invocations in ``.work/digests_seen.json``).  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 1 when any experiment failed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"
LEDGER_PATH = HERE / "BENCH_e2e.json"

#: Every pass and its workers run single-threaded BLAS, so the 2-worker
#: workloads never run more threads than a 2-CPU host has.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
PASS_TIMEOUT_S = 150.0
#: :func:`host_probe` seconds on an idle 2-vCPU Xeon (KVM) host.  Times
#: are reported scaled by this over the run's median probe, because the
#: shared host's speed drifts by up to 40% over minutes (see README.md).
PROBE_REF_S = 0.1
SWEEP_IDS = ("E1", "E3", "E5", "E6", "E7", "E13")


@dataclass(frozen=True)
class Workload:
    """One ``repro run`` invocation; ``--out``/``--runs-root`` are added
    per pass, and ``--seed`` when the benchmark is given one."""

    name: str
    experiments: "tuple[str, ...]"
    scale: str
    options: "tuple[str, ...]"
    #: Processes that execute sweep tasks (for executor overhead per task).
    workers: int

    def argv(self) -> "list[str]":
        return ["run", ",".join(self.experiments), "--scale", self.scale, *self.options]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_compute", ("E4", "E9", "E15"), "paper", ("--jobs", "1"), 1),
        Workload("latency_paper", ("E8", "E18"), "paper", ("--jobs", "1"), 1),
        Workload("sweeps_pool", SWEEP_IDS, "paper", ("--jobs", "2"), 2),
        Workload(
            "sweeps_campaign",
            SWEEP_IDS,
            "paper",
            (
                "--jobs", "2", "--executor", "dispatch", "--dispatch-workers", "2",
                "--run-id", "b", "--monitor", "--trace", "--metrics",
            ),
            2,
        ),
    )
}
#: Every experiment some workload runs, in id order.
MEASURED_IDS = sorted(
    {exp for w in WORKLOADS.values() for exp in w.experiments}, key=lambda e: int(e[1:])
)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def _child_env() -> "dict[str, str]":
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _launch(args: "list[str]", pass_dir: Path, timeout: float):
    """Run ``passrun.py args`` to exit; returns (launch, exit, status, rusage)."""
    cmd = [sys.executable, str(HERE / "passrun.py"), str(pass_dir / "status.json"), *args]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    with open(pass_dir / "stderr.txt", "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=pass_dir,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:
            _kill_group(proc.pid)
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the pass left behind
    try:
        child = json.loads((pass_dir / "status.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        child = None
    return launch, end, proc.returncode, child, rusage


def _kill_group(pgid: int) -> None:
    """SIGKILL a pass's process group and wait until it is empty."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def setup_probe(pass_dir: Path) -> "float | None":
    """Launch-to-ready seconds of a process that only sets up."""
    pass_dir.mkdir(parents=True)
    launch, _, rc, child, _ = _launch([], pass_dir, 60.0)
    return child["ready"] - launch if rc == 0 and child else None


def run_pass(
    workload: Workload, seed: "int | None", traced: bool, pass_dir: Path, timeout: float
) -> dict:
    """Run one pass and return its raw measurements and outputs."""
    out, runs = pass_dir / "out", pass_dir / "runs"
    pass_dir.mkdir(parents=True)
    cli = workload.argv() + ["--out", str(out), "--runs-root", str(runs)]
    if seed is not None:
        cli += ["--seed", str(seed)]
    pre: "list[str]" = []
    if traced:
        pre = ["--ledger", str(pass_dir / "ledger.json")]
        cli += [flag for flag in ("--trace", "--metrics") if flag not in cli]
    launch, end, rc, child, rusage = _launch([*pre, "--", *cli], pass_dir, timeout)
    rec: "dict[str, object]" = {
        "workload": workload.name,
        "traced": traced,
        "attempted": len(workload.experiments),
        "rc": rc,
        "cpu_s": rusage.ru_utime + rusage.ru_stime,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    }
    if child is None:
        rec["wall_s"] = end - launch
        rec["stderr"] = _tail(pass_dir / "stderr.txt")
        return rec
    rec["setup_s"] = child["ready"] - launch
    rec["wall_s"] = end - child["ready"]
    rec["outside_main_s"] = rec["wall_s"] - child.get("main_s", rec["wall_s"])
    rec["digests"] = {
        exp: _sha256(out / f"{exp}.json") for exp in workload.experiments
    }
    summary = _read_json(out / "summary.json") or {"experiments": []}
    rec["verdicts"] = {e["experiment_id"]: e["passed"] for e in summary["experiments"]}
    rec["experiment_s"] = {
        e["experiment_id"]: e["timings"].get("total", 0.0) for e in summary["experiments"]
    }
    if rc != 0:
        rec["stderr"] = _tail(pass_dir / "stderr.txt")
    if traced:
        rec["ledger"] = _read_json(pass_dir / "ledger.json")
        rec["counters"] = _counters(_read_json(out / "metrics.json"))
        rec["telemetry"] = _telemetry_numbers(out / "trace.jsonl", runs, workload.workers)
    return rec


def _sha256(path: Path) -> "str | None":
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _tail(path: Path, limit: int = 600) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")[-limit:]
    except OSError:
        return ""


def _counters(doc) -> "dict[str, float]":
    """Program counters from ``metrics.json``, summed over experiments."""
    total: "dict[str, float]" = {}
    for scope in (doc or {}).get("counters", {}).values():
        for name, value in scope.items():
            total[name] = total.get(name, 0) + value
    return total


TELEMETRY_KEYS = (
    "engine.tasks", "engine.task_s", "engine.overhead_ms_per_task",
    "engine.first_stage_s", "obs.trace_bytes", "obs.event_lines",
)


def _telemetry_numbers(trace_path: Path, runs: Path, workers: int) -> "dict[str, float]":
    """Executor numbers from the program's own ``--trace`` task spans,
    and the size of its trace and event bus."""
    events = sum(len(p.read_bytes().splitlines()) for p in (runs / "events").glob("*.jsonl"))
    try:
        raw = trace_path.read_bytes()
    except OSError:
        return {"obs.event_lines": events}
    spans = [json.loads(line) for line in raw.splitlines()]
    tasks = [s for s in spans if s["kind"] == "task"]
    parents = {s["parent"] for s in tasks}
    stages = sorted(
        (s for s in spans if s["kind"] == "stage" and s["id"] in parents),
        key=lambda s: s["t0"],
    )
    task_s = sum(s["dur"] for s in tasks)
    stage_s = sum(s["dur"] for s in stages)
    return {
        "engine.tasks": len(tasks),
        "engine.task_s": task_s,
        "engine.overhead_ms_per_task": (
            1000.0 * (stage_s * workers - task_s) / len(tasks) if tasks else 0.0
        ),
        "engine.first_stage_s": stages[0]["dur"] if stages else 0.0,
        "obs.trace_bytes": len(raw),
        "obs.event_lines": events,
    }


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


class DigestBook:
    """Expected result digests: ``digests.json`` at the default seed,
    else the first digest seen for that scale, seed and experiment."""

    def __init__(self, seed: "int | None") -> None:
        self.seed = seed
        self.reference = _read_json(DIGESTS_PATH) or {}
        self.seen_path = WORK / "digests_seen.json"
        self.seen = _read_json(self.seen_path) or {}

    def expected(self, scale: str, exp: str) -> "str | None":
        if self.seed is None:
            return self.reference.get(scale, {}).get(exp)
        return self.seen.get(f"{scale}:{self.seed}:{exp}")

    def failures(self, workload: Workload, rec: dict) -> "list[str]":
        """Experiments of one pass that failed, remembering new digests."""
        digests = rec.get("digests", {})
        verdicts = rec.get("verdicts", {})
        failed = []
        for exp in workload.experiments:
            got = digests.get(exp)
            want = self.expected(workload.scale, exp)
            if got is None or not verdicts.get(exp, False) or (want and got != want):
                failed.append(exp)
            elif want is None and self.seed is not None:
                self.seen[f"{workload.scale}:{self.seed}:{exp}"] = got
        if rec["rc"] != 0 and not failed:
            failed = list(workload.experiments)
        return failed

    def save(self) -> None:
        if self.seed is not None:
            self.seen_path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------


def measure(names: "list[str]", seed: "int | None", seconds: float, trace: bool) -> dict:
    """Set-up probes, then passes round-robin over ``names`` (untraced
    and, with ``trace``, traced alternately) until ``seconds`` is spent."""
    start = time.monotonic()
    passes_root = WORK / "passes"
    shutil.rmtree(passes_root, ignore_errors=True)
    book = DigestBook(seed)
    host: "list[float]" = []
    probes = []
    for i in range(SETUP_PROBES):
        host.append(host_probe())
        probes.append(setup_probe(passes_root / f"probe{i}"))
        shutil.rmtree(passes_root / f"probe{i}", ignore_errors=True)
    kinds = [(name, traced) for name in names for traced in ((False, True) if trace else (False,))]
    last: "dict[tuple[str, bool], float]" = {}
    passes: "list[dict]" = []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        elapsed = time.monotonic() - start
        if kind in last and elapsed + last[kind] > seconds:
            break
        workload = WORKLOADS[kind[0]]
        pass_dir = passes_root / f"pass{len(passes)}"
        timeout = max(30.0, PASS_TIMEOUT_S - elapsed)
        host.append(host_probe())
        rec = run_pass(workload, seed, kind[1], pass_dir, timeout)
        rec["failed"] = book.failures(workload, rec)
        shutil.rmtree(pass_dir, ignore_errors=True)
        last[kind] = float(rec.get("setup_s", 0.0)) + float(rec["wall_s"])
        passes.append(rec)
        print(
            f"# pass {len(passes)}: {kind[0]}{' traced' if kind[1] else ''} "
            f"wall {rec['wall_s']:.3f} s, failed {rec['failed'] or 'none'}",
            flush=True,
        )
    book.save()
    return {
        "seed": seed,
        "seconds": seconds,
        "host_probe_s": host,
        "setup_probes_s": probes,
        "passes": passes,
    }


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array work, the
    run's reading of host speed (about :data:`PROBE_REF_S` when idle)."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    x = a
    for _ in range(400):
        x = np.exp(-(a @ x) * 1e-3)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units and bounds."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def stats(values: "list[float]") -> "dict[str, float]":
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(run: dict, name: str) -> "dict[str, dict[str, float]]":
    """Untraced-pass measurements of one workload: :func:`stats` of the
    raw values plus the reported ``value``, which for times is the raw
    median scaled to the reference host speed."""
    passes = [p for p in run["passes"] if p["workload"] == name and not p["traced"]]
    setup = [p["setup_s"] for p in passes if "setup_s" in p]
    setup += [s for s in run["setup_probes_s"] if s is not None]
    speed = PROBE_REF_S / statistics.median(run["host_probe_s"])
    out = {}
    for metric, values, scale in (
        ("wall_s", [p["wall_s"] for p in passes], speed),
        ("setup_s", setup or [0.0], speed),
        ("cpu_s", [p["cpu_s"] for p in passes], speed),
        ("peak_rss_mb", [p["peak_rss_mb"] for p in passes], 1.0),
    ):
        out[metric] = stats(values)
        out[metric]["value"] = out[metric]["median"] * scale
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_values(rec: dict) -> "dict[str, float]":
    """Per-layer metrics of one traced pass."""
    ledger = rec.get("ledger") or {"layers": {}}
    values: "dict[str, float]" = {}
    self_total = 0.0
    for layer in LAYERS:
        entry = ledger["layers"].get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.calls"] = entry["calls"]
        self_total += entry["self_s"]
    c = rec.get("counters", {})
    values.update(
        {
            "latency.commit_ratio": _ratio(
                c.get("slotloop.slots_committed", 0), c.get("slotloop.slots_speculated", 0)
            ),
            "latency.settle_rows": c.get("slotloop.settle_rows", 0),
            "fading.theorem1_hit_ratio": _ratio(
                c.get("theorem1.cache_hits", 0),
                c.get("theorem1.cache_hits", 0) + c.get("theorem1.cache_misses", 0),
            ),
            "fading.theorem1_patterns": c.get("theorem1.batch_patterns", 0),
            "fading.mc_draw_slots": c.get("mc.draw_slots", 0),
            "channel.realize_slots": c.get("channel.realize_slots", 0),
            "learning.reward_rounds": c.get("regret.reward_rounds", 0),
            "engine.journal_records": c.get("journal.records", 0),
        }
    )
    values.update(dict.fromkeys(TELEMETRY_KEYS, 0.0))
    values.update(rec.get("telemetry", {}))
    values["unattributed_frac"] = 1.0 - _ratio(self_total, rec["wall_s"])
    return values


def per_layer(run: dict, name: str) -> "dict[str, float]":
    """Medians over the traced passes of one workload, plus the
    per-experiment walls and the tracing overhead from untraced ones."""
    mine = [p for p in run["passes"] if p["workload"] == name]
    traced = [traced_values(p) for p in mine if p["traced"]]
    untraced = [p for p in mine if not p["traced"]]
    values = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    for exp in MEASURED_IDS:
        walls = [p["experiment_s"][exp] for p in untraced if exp in p.get("experiment_s", {})]
        values[f"experiments.{exp}.wall_s"] = statistics.median(walls) if walls else 0.0
    values["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in mine if p["traced"])
        / statistics.median(p["wall_s"] for p in untraced)
        - 1.0
    )
    return values


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def provenance(seed: "int | None") -> "dict[str, object]":
    rev = None
    if (ROOT / ".git").exists():  # an exported checkout has no revision
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_env": BLAS_ENV,
        "seed": seed,
    }


def raw_values(run: dict) -> dict:
    """Every probe's and pass's raw values, in run order (ledgers reduced
    to their per-layer sums)."""
    keep = (
        "workload", "traced", "rc", "setup_s", "wall_s", "cpu_s", "peak_rss_mb",
        "outside_main_s", "failed", "experiment_s", "counters", "telemetry", "stderr",
    )
    passes = []
    for rec in run["passes"]:
        row = {k: rec[k] for k in keep if k in rec}
        if rec.get("ledger"):
            row["layers"] = rec["ledger"]["layers"]
            row["root_s"] = rec["ledger"]["root_s"]
        passes.append(row)
    return {
        "host_probe_s": run["host_probe_s"],
        "setup_probes_s": run["setup_probes_s"],
        "passes": passes,
    }


def _result(run: dict, metrics: "dict[str, dict[str, object]]") -> dict:
    attempted = sum(p["attempted"] for p in run["passes"])
    failed = sum(len(p["failed"]) for p in run["passes"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(run: dict, names: "list[str]", trace: bool, spec: dict) -> dict:
    """Print every metric by name and unit; return the result object."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics: "dict[str, dict[str, object]]" = {}
    prefix = len(names) > 1
    for name in names:
        print(f"# workload {name}")
        if trace:
            for key, value in per_layer(run, name).items():
                print(f"{key:34s} {value:14.6g} {units[key]}")
                metrics[f"{name}.{key}" if prefix else key] = {"value": value, "unit": units[key]}
        else:
            for key, st in end_to_end(run, name).items():
                print(
                    f"{key:12s} {st['value']:10.4f} {units[key]:3s} (raw median "
                    f"{st['median']:.4f}, q1 {st['q1']:.4f}, q3 {st['q3']:.4f}, n={st['n']})"
                )
                metrics[f"{name}.{key}" if prefix else key] = {
                    "value": st["value"], "unit": units[key]
                }
    host = stats(run["host_probe_s"])
    print(f"# host probe median {host['median']:.4f} s (q1 {host['q1']:.4f}, "
          f"q3 {host['q3']:.4f}, n={host['n']}); reference {PROBE_REF_S} s")
    result = _result(run, metrics)
    print(f"# failed_frac {result['failed'] / max(result['attempted'], 1):.4f} "
          f"({result['failed']} of {result['attempted']} experiments)")
    print(json.dumps({"provenance": provenance(run["seed"]), **raw_values(run)}))
    return result


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def record(seconds: float) -> int:
    """Two back-to-back untraced sets plus one traced set, at the default
    seed, over every workload; written to ``BENCH_e2e.json``."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(WORKLOADS)
    sets = [measure(names, None, seconds, False) for _ in range(2)]
    traced = measure(names, None, seconds, True)
    doc: "dict[str, object]" = {
        "what": "bench.py --record: two back-to-back untraced sets and one "
        "traced set at the default seed; medians, quartiles and pass counts",
        "provenance": provenance(None),
        "seconds_per_set": seconds,
        "sets": [{n: end_to_end(s, n) for n in names} for s in sets],
        "agreement": {},
        "traced": {n: per_layer(traced, n) for n in names},
        "raw": {"sets": [raw_values(s) for s in sets], "traced": raw_values(traced)},
    }
    for name in names:
        rows = {}
        for metric, bound in bounds.items():
            first = doc["sets"][0][name][metric]["value"]
            second = doc["sets"][1][name][metric]["value"]
            change = second / first - 1.0
            rows[metric] = {"set1": first, "set2": second, "change": change, "bound": bound,
                            "within_bound": abs(change) <= bound}
        doc["agreement"][name] = rows
    failed = sum(len(p["failed"]) for s in (*sets, traced) for p in s["passes"])
    doc["failed"] = failed
    LEDGER_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER_PATH} ({failed} failed experiments)")
    return 1 if failed else 0


def write_digests() -> int:
    """One default-seed pass per workload; result bytes must agree
    wherever two workloads run the same experiment at the same scale."""
    WORK.mkdir(exist_ok=True)
    book: "dict[str, dict[str, str]]" = {}
    bad = []
    for i, workload in enumerate(WORKLOADS.values()):
        pass_dir = WORK / "passes" / f"digest{i}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        rec = run_pass(workload, None, False, pass_dir, PASS_TIMEOUT_S)
        shutil.rmtree(pass_dir, ignore_errors=True)
        for exp, digest in rec.get("digests", {}).items():
            have = book.setdefault(workload.scale, {}).setdefault(exp, digest)
            if digest is None or have != digest or not rec["verdicts"].get(exp):
                bad.append(f"{workload.name}:{exp}")
    if bad:
        print(f"not written; failing or disagreeing results: {bad}", file=sys.stderr)
        return 1
    DIGESTS_PATH.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to 'repro run --seed' (default: each driver's own)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json, "
                        "times the workload count when running all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced passes, report per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="write BENCH_e2e.json (default seed, every workload)")
    parser.add_argument("--write-digests", action="store_true",
                        help="write digests.json from one default-seed pass per workload")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        parser.error(f"--seconds must be at least 1, got {args.seconds}")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from bench.py", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds or spec["run_seconds"] * len(names)
    if args.write_digests:
        return write_digests()
    if args.record:
        return record(seconds)
    run = measure(names, args.seed, seconds, bool(args.trace))
    result = report(run, names, bool(args.trace), spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
