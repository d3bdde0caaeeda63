#!/usr/bin/env python
"""Chaos soak harness — sustained randomized faults vs. byte-identity.

Runs a multi-stage workload under a seeded :class:`RandomSchedule`
(probabilistic raise / hang / worker-lost / exit faults per task, plus
ENOSPC injection into journal checkpoint writes) on every execution
backend, with dispatch workers joining as chaos kills their peers —
and asserts the one invariant the whole engine is built around: the
final aggregate bytes are identical to a clean serial run, at every
``--jobs`` / worker count.

.. code-block:: console

    python benchmarks/soak.py --quick              # CI budget (~60 s)
    python benchmarks/soak.py --seed 7 --out d/    # files for byte cmp
    python benchmarks/soak.py --jobs 8 --dispatch-workers 5

With ``--out DIR`` each phase writes its aggregate to
``DIR/<phase>.json`` so CI can ``cmp`` them against ``serial.json``
byte for byte.  Exit status is non-zero on any mismatch.

Every schedule fault is once-only and the workload runs under
``on_error="retry"``, so every injected fault is recoverable by design;
task randomness rides on spawned task seeds, so recovery re-derives
identical numbers.  The harness therefore proves the *machinery*
(retry, pool rebuild, lease re-issue, run-context shipping, degradation
ladder) — the math needs no luck.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import chaos
from repro.engine.backends import DispatchBackend
from repro.engine.backends.dispatch import seeded_norm_task
from repro.engine.executor import make_tasks, map_tasks
from repro.engine.faults import ExecutionPolicy, RetryPolicy, execution_scope
from repro.engine.journal import RunJournal
from repro.run_context import run_scope

STAGES = ("soak-alpha", "soak-beta")


def _workload(tasks_per_stage: int, n: int) -> "dict[str, list]":
    """The sweep of each stage: payloads plus per-task spawned seeds."""
    return {
        stage: make_tasks(
            [{"n": n} for _ in range(tasks_per_stage)],
            root_seed=20120625 + s,
            name=stage,
        )
        for s, stage in enumerate(STAGES)
    }


def _aggregate(tasks_per_stage: int, n: int, jobs: int, policy, executor) -> str:
    """Run every stage and serialize the ordered results — the bytes
    under test."""
    out = {}
    with execution_scope(policy):
        for stage, tasks in _workload(tasks_per_stage, n).items():
            out[stage] = map_tasks(
                seeded_norm_task, tasks, jobs=jobs, stage=stage,
                executor=executor,
            )
    return json.dumps(out, sort_keys=True)


def _policy(journal=None) -> ExecutionPolicy:
    return ExecutionPolicy(
        on_error="retry",
        retry=RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.1),
        journal=journal,
        quarantine_after=5,
    )


def _schedule(seed: int, quick: bool) -> chaos.RandomSchedule:
    scale = 0.5 if quick else 1.0
    return chaos.RandomSchedule(
        seed=seed,
        p_raise=0.10 * scale,
        p_hang=0.06 * scale,
        p_worker_lost=0.08 * scale,
        p_exit=0.06 * scale,
        p_enospc=0.20,
        hang_seconds=0.3 if quick else 1.0,
    )


class WorkerFleet:
    """Dispatch workers that keep joining as chaos kills their peers."""

    def __init__(self, root: Path, size: int):
        self.root = root
        self.size = size
        self.procs: "list[subprocess.Popen]" = []
        self.spawned = 0
        self.deaths = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._tend, daemon=True)

    def _spawn(self) -> subprocess.Popen:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env.pop(chaos.CHAOS_ENV, None)  # plans ship in the queue's run context
        self.spawned += 1
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker", str(self.root),
                "--name", f"soak-{self.spawned}", "--poll", "0.02",
                "--max-idle", "120",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _tend(self) -> None:
        while not self._stop.wait(0.2):
            alive = []
            for proc in self.procs:
                if proc.poll() is None:
                    alive.append(proc)
                else:
                    self.deaths += 1
            while len(alive) < self.size:
                alive.append(self._spawn())  # a fresh worker joins
            self.procs = alive

    def __enter__(self) -> "WorkerFleet":
        self.procs = [self._spawn() for _ in range(self.size)]
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()


def _chaos_phase(name: str, seed: int, quick: bool, work_dir: Path):
    """A fresh seeded plan (new marker dir per phase, so each phase
    suffers the full schedule) and a fresh journal."""
    state_dir = work_dir / f"chaos-{name}"
    plan = chaos.ChaosPlan(
        state_dir=str(state_dir), schedule=_schedule(seed, quick)
    )
    journal = RunJournal.create(work_dir / "runs", f"soak-{name}", {"phase": name})
    return plan, journal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI budget: fewer tasks, gentler hangs (~60 s)")
    parser.add_argument("--seed", type=int, default=20120625,
                        help="chaos schedule seed (default 20120625)")
    parser.add_argument("--tasks", type=int, default=None,
                        help="tasks per stage (default 16 quick / 48 full)")
    parser.add_argument("--jobs", type=int, nargs="*", default=None,
                        help="pool worker counts to soak (default 1 4)")
    parser.add_argument("--dispatch-workers", type=int, nargs="*", default=None,
                        help="dispatch fleet sizes to soak (default 1 3)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write each phase's aggregate bytes to DIR")
    args = parser.parse_args(argv)

    tasks_per_stage = args.tasks or (16 if args.quick else 48)
    n = 64 if args.quick else 256
    jobs_list = args.jobs if args.jobs else [1, 4]
    fleet_sizes = (
        args.dispatch_workers if args.dispatch_workers else [1, 3]
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    work_dir = Path(tempfile.mkdtemp(prefix="repro-soak-"))
    failures = 0
    try:
        t0 = time.monotonic()
        reference = _aggregate(tasks_per_stage, n, 1, _policy(), "serial")
        print(f"serial clean reference: {time.monotonic() - t0:.1f}s, "
              f"{len(reference)} bytes")
        phases = {"serial": reference}

        for jobs in jobs_list:
            name = f"pool-j{jobs}"
            plan, journal = _chaos_phase(name, args.seed, args.quick, work_dir)
            t0 = time.monotonic()
            with run_scope(chaos=plan):
                got = _aggregate(tasks_per_stage, n, jobs, _policy(journal), "pool")
            phases[name] = got
            ok = got == reference
            failures += not ok
            print(f"{name}: {'OK' if ok else 'BYTE MISMATCH'} "
                  f"({time.monotonic() - t0:.1f}s, "
                  f"{journal.degraded_writes} degraded write(s))")

        for size in fleet_sizes:
            name = f"dispatch-w{size}"
            plan, journal = _chaos_phase(name, args.seed, args.quick, work_dir)
            backend = DispatchBackend(
                work_dir / f"queue-{name}", lease_timeout=1.5, poll=0.02
            )
            t0 = time.monotonic()
            with WorkerFleet(work_dir / f"queue-{name}", size) as fleet:
                try:
                    with run_scope(chaos=plan):
                        got = _aggregate(
                            tasks_per_stage, n, 1, _policy(journal), backend
                        )
                finally:
                    backend.close()
            phases[name] = got
            ok = got == reference
            failures += not ok
            print(f"{name}: {'OK' if ok else 'BYTE MISMATCH'} "
                  f"({time.monotonic() - t0:.1f}s, {fleet.spawned} worker(s) "
                  f"spawned, {fleet.deaths} died, "
                  f"{journal.degraded_writes} degraded write(s))")

        if out_dir is not None:
            for name, text in phases.items():
                (out_dir / f"{name}.json").write_text(text, encoding="utf-8")
            print(f"aggregates written to {out_dir}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if failures:
        print(f"SOAK FAILED: {failures} phase(s) diverged from serial bytes",
              file=sys.stderr)
        return 1
    print("soak passed: every phase byte-identical to clean serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
