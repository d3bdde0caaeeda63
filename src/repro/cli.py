"""Command-line interface: run any reproduced experiment from a shell.

.. code-block:: console

    python -m repro list                      # what can be run
    python -m repro run E1                    # quick-scale Figure 1
    python -m repro run E2 --scale paper      # verbatim Section-7 scale
    python -m repro run E1 --jobs 4           # parallel sweep, same bytes
    python -m repro run all --jobs 2          # whole experiments in parallel
    python -m repro run E6 --seed 7 --timings # re-seeded, with stage times
    python -m repro run E8 --channel nakagami:m=2   # another fading family
    python -m repro run all --out results/    # everything, tables to disk
    python -m repro run E13 --run-id nightly  # journal results as they land
    python -m repro run E13 --resume nightly  # replay journal, run the rest
    python -m repro run E6 --on-error retry --task-timeout 120
    python -m repro run E1 --out r/ --trace --metrics   # telemetry, same bytes
    python -m repro run E1 --executor dispatch --dispatch-workers 2  # file queue
    python -m repro run E1 --monitor          # live event bus for top/tail
    python -m repro top .repro-runs           # live dashboard (files only)
    python -m repro tail .repro-runs --follow # stream the event bus
    python -m repro stats r/                  # render a past run's telemetry
    python -m repro stats r/ --json           # machine-readable document
    python -m repro report --out EXPERIMENTS.md

Experiments are discovered through :mod:`repro.engine.registry` — each
driver module self-registers with ``@register`` and the CLI holds no
experiment table of its own.  The ``run`` subcommand prints each
experiment's rendered table and its shape-check verdicts and exits
non-zero if any check fails, so the CLI doubles as a reproduction gate
in CI.  With ``--out DIR`` it also writes an aggregate ``summary.json``
covering every experiment of the invocation.

Fault tolerance (see DESIGN.md, "Fault tolerance & determinism"):
``--on-error`` chooses whether a failing task aborts the run (``raise``,
default), is recorded and skipped (``skip``), or is retried with
exponential backoff (``retry``, ``--retries`` attempts); ``--task-timeout``
bounds each task's wall clock under ``--jobs >= 2``.  ``--run-id`` journals
every completed task so a killed run can be finished with ``--resume`` —
bit-identical to an uninterrupted run at any ``--jobs``.  ``--guards``
sets the numerical-guard strictness (default ``warn``).  Runs that lose
tasks are marked ``incomplete`` in ``summary.json`` and exit non-zero.

Every setting of a run — the resolved experiment ids, scale, seed,
channel, array backend, guard mode, chaos plan and telemetry switches —
is one :class:`~repro.run_context.RunContext`: installed for the run,
shipped whole to every worker, recorded at the top of ``summary.json``
and in the journal, and checked by ``--resume``.

Observability (see DESIGN.md, "Observability"): ``--trace`` streams
hierarchical spans (run → experiment → stage → task) to
``trace.jsonl``, ``--metrics`` aggregates kernel/executor counters into
``metrics.json``, and ``--profile`` dumps per-stage cProfile files —
all inside the ``--out`` directory, which these flags therefore
require.  Telemetry never changes result bytes, at any ``--jobs``, and
``metrics.json`` itself has the same bytes at every ``--jobs``.
``repro stats <run-dir>`` renders what a past run left behind
(``--json`` for the machine-readable document).

Live observability (see DESIGN.md, "Live fleet observability"):
``--monitor`` appends structured events (task lifecycle, re-issues,
quarantines, degraded writes, chaos faults, heartbeats) to
``<runs-root>/events/``, and does nothing else.  ``repro top
<runs-root>`` is the refreshing files-only dashboard (stage progress,
ETAs, worker health with stale-heartbeat warnings, dead queues);
``repro tail <runs-root> --follow`` streams the merged event bus.
Events never change result bytes.

Array backend (see DESIGN.md, "Array backend & dtype policy"):
``--dtype float64|float32`` picks the compute precision of the
gain-matrix products and ``--topk K`` the sparse top-k-interferer
representation for large ``n``.  The defaults (``float64``, dense) are
byte-identical to the pre-backend library at any ``--jobs``;
non-default modes trade the documented tolerances for speed and are
recorded in ``summary.json``.

Execution backends (see DESIGN.md, "Execution backends"):
``--executor`` picks where sweep tasks run — ``auto`` (default: serial
for ``--jobs 1``, a local process pool otherwise), ``serial``, ``pool``,
or ``dispatch``, a file queue under ``--runs-root`` served by
``--dispatch-workers`` processes (``--jobs`` by default) that the run
forks and that exit with it.  On the pool, a run of at least as many
experiments as workers (two or more) without ``--task-timeout`` hands
each experiment to a worker whole (:mod:`repro.engine.suite`).  Result
bytes are identical on every backend at every worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from pathlib import Path

from repro.backend import DTYPES, BackendConfig
from repro.engine import chaos, guards
from repro.engine.executor import JOBS_CAP, resolve_jobs
from repro.engine.faults import EXECUTOR_MODES, ON_ERROR_MODES, ExecutionPolicy, RetryPolicy
from repro.engine.journal import JournalError, RunJournal
from repro.engine.registry import ExperimentSpec, all_specs, get_spec
from repro.obs import METRICS_FILENAME, TRACE_FILENAME, Telemetry, obs_scope, span
from repro.obs import events as obs_events
from repro.obs.stats import RunDirError, render_run_dir, stats_doc
from repro.run_context import RESULT_FIELDS, RunContext, run_scope
from repro.utils.atomic import atomic_write_text
from repro.utils.heap import apply_heap_policy

__all__ = ["main", "build_parser"]

DEFAULT_RUNS_ROOT = ".repro-runs"


def _cmd_list(_args) -> int:
    specs = all_specs()
    width = max(len(k) for k in specs)
    for key, spec in specs.items():
        print(f"{key.ljust(width)}  {spec.title}")
    return 0


def _resolve_specs(spec: str) -> "list[ExperimentSpec]":
    if spec.lower() == "all":
        return list(all_specs().values())
    ids = [part.strip() for part in spec.split(",") if part.strip()]
    if not ids:
        raise SystemExit(f"no experiment ids in {spec!r}; pass E1..E22 or 'all'")
    try:
        specs = [get_spec(i) for i in ids]
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) + "; or 'all'") from exc
    seen: "set[str]" = set()
    for s in specs:
        if s.experiment_id in seen:
            raise SystemExit(
                f"experiment {s.experiment_id} is selected more than once in "
                f"{spec!r}; name each experiment once"
            )
        seen.add(s.experiment_id)
    return specs


def _build_run(args, **telemetry) -> RunContext:
    """The run context this invocation's flags (and ``$REPRO_CHAOS``)
    describe; ``telemetry`` sets its metrics/spans/events switches."""
    specs = _resolve_specs(args.experiment)
    if args.channel is not None:
        # Refused before anything runs or a journal is created.
        refusing = [spec.experiment_id for spec in specs if not spec.supports_channel]
        if refusing:
            takers = [k for k, spec in all_specs().items() if spec.supports_channel]
            raise SystemExit(
                f"--channel applies only to {', '.join(takers)}; "
                f"{', '.join(refusing)} {'does' if len(refusing) == 1 else 'do'} "
                "not take a channel override"
            )
    try:
        plan = chaos.plan_from_env()
    except chaos.ChaosSpecError as exc:
        raise SystemExit(str(exc)) from exc
    return RunContext(
        experiment_ids=tuple(spec.experiment_id for spec in specs),
        scale=args.scale,
        seed=args.seed,
        channel=args.channel,
        backend=BackendConfig(dtype=args.dtype, topk=args.topk),
        guards=args.guards,
        chaos=plan,
        **telemetry,
    )


def _build_executor(args):
    """The ``--executor`` choice as the policy layer wants it: the mode
    string, or one configured :class:`DispatchBackend` instance shared
    by every stage of this invocation (so all stages publish to queues
    under one runs root and reuse the same local workers)."""
    if args.executor != "dispatch":
        if args.dispatch_workers is not None:
            raise SystemExit("--dispatch-workers requires --executor dispatch")
        return args.executor
    from repro.engine.backends import DispatchBackend

    workers = args.dispatch_workers
    return DispatchBackend(
        args.runs_root,
        local_workers=resolve_jobs(args.jobs) if workers is None else workers,
    )


def _close_executor(policy: ExecutionPolicy) -> None:
    """Release a backend instance the policy owns (dispatch workers)."""
    if not isinstance(policy.executor, str):
        policy.executor.close()


def _build_policy(args, journal: "RunJournal | None" = None) -> ExecutionPolicy:
    """The :class:`ExecutionPolicy` this invocation's flags describe."""
    try:
        return ExecutionPolicy(
            on_error=args.on_error,
            retry=RetryPolicy(max_attempts=args.retries),
            timeout=args.task_timeout,
            journal=journal,
            executor=_build_executor(args),
            quarantine_after=args.quarantine_after,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _open_journal(args, run: RunContext) -> "RunJournal | None":
    """Create or re-open the run journal the flags ask for (or ``None``).

    A new journal records the run context's dict form as its meta.  A
    resumed journal must have been created with the same
    :data:`~repro.run_context.RESULT_FIELDS`: the experiment ids, scale,
    seed, and channel all feed the sweep shape and the per-task seeds,
    and the array-backend configuration (dtype/topk) feeds the recorded
    result bytes, so a mismatch would silently mix two different runs.
    ``--jobs``, ``--executor``, guards, chaos and telemetry are
    deliberately *not* checked — results are bit-identical across them
    by construction.
    """
    if args.resume and args.run_id:
        raise SystemExit(
            "pass either --run-id (start a new journaled run) or "
            "--resume (finish an existing one), not both"
        )
    if args.resume is None and args.run_id is None:
        return None
    meta = run.to_dict()
    try:
        if args.resume is None:
            return RunJournal.create(args.runs_root, args.run_id, meta)
        journal = RunJournal.open(args.runs_root, args.resume)
    except JournalError as exc:
        raise SystemExit(str(exc)) from exc
    recorded = dict(journal.meta)
    if "experiment" in recorded and "experiment_ids" not in recorded:
        # Journals written before the ids were recorded hold the typed selection.
        recorded["experiment_ids"] = [
            spec.experiment_id for spec in _resolve_specs(str(recorded["experiment"]))
        ]
    for key in RESULT_FIELDS:
        value, before = meta[key], recorded.get(key)
        if before == value:
            continue
        if isinstance(before, dict) and isinstance(value, dict):
            diff = ", ".join(
                f"{f}: {before.get(f)!r} (recorded) != "
                f"{value.get(f)!r} (this invocation)"
                for f in sorted(set(before) | set(value))
                if before.get(f) != value.get(f)
            )
            raise SystemExit(
                f"--resume {args.resume}: the run was created under "
                f"a different {key} configuration [{diff}]; re-run "
                "with matching flags or start a new --run-id"
            )
        raise SystemExit(
            f"--resume {args.resume}: the run was created with "
            f"{key}={before!r} but this invocation has "
            f"{key}={value!r}; re-run with matching flags or "
            "start a new --run-id"
        )
    return journal


def _whole_experiments(args, run: RunContext, policy: ExecutionPolicy) -> bool:
    """Whether the pool takes whole experiments as its tasks: the executor
    is the process pool and at least as many experiments as workers are
    selected (two or more), so no worker idles that a sweep could have
    used.  A task timeout keeps one process per sweep task, which is what
    preempting one needs."""
    workers = resolve_jobs(args.jobs)
    pool = policy.executor == "pool" or (policy.executor == "auto" and workers >= 2)
    selected = len(run.experiment_ids)
    return pool and selected >= max(2, workers) and policy.timeout is None


def _run_specs(args, run: RunContext, on_result, policy: ExecutionPolicy) -> int:
    """Run each experiment of ``run``, feed results to ``on_result`` in
    selection order as they land, and return the number of experiments
    with failing checks."""
    if _whole_experiments(args, run, policy):
        from repro.engine.suite import run_whole

        results = run_whole(run.experiment_ids, jobs=args.jobs, policy=policy)
    else:
        results = (
            get_spec(exp_id).run(
                run.scale, seed=run.seed, jobs=args.jobs, channel=run.channel, policy=policy
            )
            for exp_id in run.experiment_ids
        )
    failures = 0
    with closing(results):
        for exp_id in run.experiment_ids:
            try:
                result = next(results)
            except (ValueError, JournalError, RuntimeError) as exc:
                raise SystemExit(str(exc)) from exc
            failures += not result.all_checks_pass
            on_result(get_spec(exp_id), result)
    return failures


def _summary_entry(spec: ExperimentSpec, result) -> "dict[str, object]":
    entry: "dict[str, object]" = {
        "experiment_id": spec.experiment_id,
        "title": spec.title,
        "passed": bool(result.all_checks_pass),
        "checks": {name: bool(ok) for name, ok in result.checks.items()},
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }
    if result.faults:
        entry["faults"] = result.faults
        entry["incomplete"] = bool(result.incomplete)
    return entry


def _write_text(path: Path, text: str) -> None:
    """Atomic write with a one-line CLI error instead of a traceback."""
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}") from exc


def _cmd_run(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if (args.trace or args.metrics or args.profile) and out_dir is None:
        raise SystemExit(
            "--trace/--metrics/--profile write their files into the run "
            "directory; pass --out DIR alongside them"
        )
    # The event bus lives under the *runs root* (not --out), next to the
    # dispatch queues, where `repro top`/`repro tail` find every process
    # of the run.
    run = _build_run(
        args,
        metrics=args.metrics,
        spans=args.trace,
        events=(
            str(Path(args.runs_root) / obs_events.EVENTS_DIRNAME) if args.monitor else None
        ),
    )
    journal = _open_journal(args, run)
    policy = _build_policy(args, journal)
    try:
        with run_scope(run):
            return _cmd_run_scoped(args, run, out_dir, journal, policy)
    finally:
        _close_executor(policy)


def _cmd_run_scoped(args, run: RunContext, out_dir, journal, policy) -> int:
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(
                f"cannot create --out directory {out_dir}: {exc}"
            ) from exc
    # The event bus opens lazily and every sink absorbs its failed
    # writes, so telemetry can never take a run down or change bytes.
    telemetry = Telemetry.for_run_dir(
        out_dir, trace=run.spans, metrics=run.metrics, profile=args.profile,
        events=run.events,
    )
    summary: "list[dict[str, object]]" = []

    def on_result(spec: ExperimentSpec, result) -> None:
        rendered = result.render(timings=args.timings)
        print(rendered)
        print()
        if out_dir is not None:
            exp_id = spec.experiment_id
            _write_text(out_dir / f"{exp_id}.txt", rendered + "\n")
            _write_text(out_dir / f"{exp_id}.json", result.to_json())
        summary.append(_summary_entry(spec, result))

    with obs_scope(telemetry):
        with span("run", kind="run", experiments=args.experiment):
            failures = _run_specs(args, run, on_result, policy)
    incomplete = [
        str(entry["experiment_id"]) for entry in summary if entry.get("incomplete")
    ]
    if out_dir is not None:
        doc = {
            **run.to_dict(),
            "chaos": run.chaos is not None,
            "jobs": args.jobs,
            "executor": args.executor,
            "run_id": journal.run_id if journal is not None else None,
            "passed": bool(failures == 0),
            "incomplete": bool(incomplete),
            "experiments": summary,
        }
        if journal is not None:
            doc["journal"] = journal.health()
        if telemetry is not None:
            doc["telemetry"] = {
                "trace": TRACE_FILENAME if run.spans else None,
                "metrics": METRICS_FILENAME if telemetry.metrics is not None else None,
                "profile": telemetry.profiles,
                "backend": run.backend.describe(),
                "events": (
                    str(telemetry.events.path) if telemetry.events is not None else None
                ),
            }
        _write_text(out_dir / "summary.json", json.dumps(doc, indent=2) + "\n")
        if telemetry is not None and telemetry.metrics is not None:
            _write_text(
                out_dir / METRICS_FILENAME,
                json.dumps(telemetry.metrics.to_dict(), indent=2) + "\n",
            )
    if journal is not None:
        journal.write_status(
            {
                "complete": not incomplete,
                "incomplete_experiments": incomplete,
                "experiments": summary,
                "journal": journal.health(),
            }
        )
    if incomplete:
        hint = (
            f"; finish it with --resume {journal.run_id}"
            if journal is not None
            else "; re-run with --run-id to make the run resumable"
        )
        print(
            f"INCOMPLETE: {', '.join(incomplete)} lost tasks "
            f"(see summary faults){hint}",
            file=sys.stderr,
        )
        return 1
    if failures:
        print(f"{failures} experiment(s) FAILED their shape checks", file=sys.stderr)
        return 1
    return 0


def _cmd_doctor(args) -> int:
    """Body of ``repro doctor``: audit (and repair) a runs root."""
    from repro.engine.doctor import diagnose

    report = diagnose(args.runs_root, repair=args.repair)
    print(json.dumps(report, indent=2))
    return 1 if report["unrepaired"] else 0


def _cmd_top(args) -> int:
    """Body of ``repro top``: the live files-only fleet dashboard."""
    from repro.obs.live import top

    return top(
        args.runs_root,
        once=args.once,
        interval=args.interval,
        stale_after=args.stale_after,
    )


def _cmd_tail(args) -> int:
    """Body of ``repro tail``: print/stream the merged event bus."""
    from repro.obs.live import tail

    return tail(args.runs_root, follow=args.follow, interval=args.interval)


def _cmd_stats(args) -> int:
    try:
        if args.json:
            print(json.dumps(stats_doc(args.run_dir), indent=2))
        else:
            print(render_run_dir(args.run_dir))
    except RunDirError as exc:
        raise SystemExit(str(exc)) from exc
    return 0


def _cmd_report(args) -> int:
    run = _build_run(args)
    policy = _build_policy(args)
    lines = [
        "# Experiment report",
        "",
        f"Scale: `{args.scale}`.  Generated by `python -m repro report`.",
        "",
    ]

    def on_result(spec: ExperimentSpec, result) -> None:
        verdict = "PASS" if result.all_checks_pass else "FAIL"
        lines.extend(
            [
                f"## {spec.experiment_id} — {spec.title}  [{verdict}]",
                "",
                "```",
                result.render(timings=args.timings),
                "```",
                "",
            ]
        )

    try:
        with run_scope(run):
            failures = _run_specs(args, run, on_result, policy)
    finally:
        _close_executor(policy)
    text = "\n".join(lines)
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 1 if failures else 0


# Argument types.  argparse names the flag in front of each message
# ("argument --seed: must be >= 0, got -1"), so a message states only
# the constraint.


def _int_in(low: int, high: "int | None" = None, hint: str = ""):
    """An argparse type: an integer in ``[low, high]`` (``high=None``: no
    upper bound); ``hint`` follows the range in the error message."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {value!r}")
        if number < low or (high is not None and number > high):
            bound = f">= {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}{hint}, got {number}")
        return number

    return parse


def _positive_seconds(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {value!r}")
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return seconds


_jobs_arg = _int_in(
    0, JOBS_CAP, " (0 = every core; the sanity cap is max(64, 4 x CPU count))"
)
_count_arg = _int_in(1)
_workers_arg = _int_in(1, JOBS_CAP)
_seed_arg = _int_in(0)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=("quick", "paper"), default="quick",
        help="quick (default) or verbatim paper parameters",
    )
    parser.add_argument(
        "--seed", type=_seed_arg, default=None,
        help="override the experiment's root seed",
    )
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="worker processes (0 = all cores): a run of at least as many "
        "experiments as workers runs each whole on one worker, otherwise the "
        "sweep tasks spread over them (results are identical for every value)",
    )
    parser.add_argument(
        "--channel", default=None, metavar="SPEC",
        help="interference-model override for channel-aware experiments: "
        "nonfading | rayleigh | rayleigh-mc[:slots=N] | nakagami:m=M | "
        "rician:k=K | block:coherence=L[,family=...]",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="append per-stage wall-clock timings to each table",
    )
    parser.add_argument(
        "--on-error", choices=ON_ERROR_MODES, default="raise",
        help="failing sweep task: abort (raise, default), record and "
        "skip, or retry with exponential backoff",
    )
    parser.add_argument(
        "--retries", type=_count_arg, default=3, metavar="N",
        help="max attempts per task under --on-error retry (default 3)",
    )
    parser.add_argument(
        "--quarantine-after", type=_count_arg, default=3, metavar="K",
        help="quarantine a task after it kills its worker K times "
        "(default 3): it settles as a structured failure instead of "
        "being re-issued forever, so the rest of the sweep completes",
    )
    parser.add_argument(
        "--task-timeout", type=_positive_seconds, default=None, metavar="SECONDS",
        help="wall-clock budget per sweep task (process backend only)",
    )
    parser.add_argument(
        "--guards", choices=guards.GUARD_MODES, default="warn",
        help="numerical-guard strictness for kernel outputs "
        "(default warn; strict turns violations into task failures)",
    )
    parser.add_argument(
        "--dtype", choices=DTYPES, default="float64",
        help="compute dtype of the gain-matrix products (default float64, "
        "exact; float32 trades documented tolerances for speed)",
    )
    parser.add_argument(
        "--topk", type=_count_arg, default=None, metavar="K",
        help="keep only the K strongest interferers per receiver (sparse "
        "gain matrices for large n; default dense/exact)",
    )
    parser.add_argument(
        "--executor", choices=(*EXECUTOR_MODES, "dispatch"), default="auto",
        help="where sweep tasks run: auto (default; serial for --jobs 1, "
        "a local process pool otherwise), serial, pool, or dispatch — a "
        "file queue under --runs-root served by worker processes this run "
        "forks (identical result bytes on every backend)",
    )
    parser.add_argument(
        "--dispatch-workers", type=_workers_arg, default=None, metavar="N",
        help="with --executor dispatch: the number of worker processes "
        "to fork (default: --jobs); they exit with the run",
    )
    parser.add_argument(
        "--runs-root", default=DEFAULT_RUNS_ROOT, metavar="DIR",
        help="directory holding run journals and dispatch queues "
        f"(default {DEFAULT_RUNS_ROOT})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scheduling in Wireless Networks with "
        "Rayleigh-Fading Interference' (SPAA 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    run_p = sub.add_parser("run", help="run experiment(s) and print their tables")
    run_p.add_argument("experiment", help="experiment id, comma list, or 'all'")
    _add_run_options(run_p)
    run_p.add_argument(
        "--out", help="directory for .txt/.json results plus summary.json"
    )
    run_p.add_argument(
        "--trace", action="store_true",
        help="stream hierarchical spans (run/experiment/stage/task) to "
        "trace.jsonl in the --out directory",
    )
    run_p.add_argument(
        "--metrics", action="store_true",
        help="aggregate kernel and executor counters into metrics.json "
        "in the --out directory",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="dump a cProfile .pstats file per driver stage into the "
        "--out directory",
    )
    run_p.add_argument(
        "--monitor", action="store_true",
        help="append live structured events (task lifecycle, "
        "heartbeats, faults) under <runs-root>/events/ for repro "
        "top/tail; never changes result bytes",
    )
    run_p.add_argument(
        "--run-id", default=None, metavar="ID",
        help="journal completed tasks under this id (makes the run resumable)",
    )
    run_p.add_argument(
        "--resume", default=None, metavar="ID",
        help="replay a journaled run's completed tasks and execute the rest",
    )
    run_p.set_defaults(func=_cmd_run)

    top_p = sub.add_parser(
        "top",
        help="live files-only dashboard of in-flight runs under a runs "
        "root: stage progress and ETAs, worker health, queue depths",
    )
    top_p.add_argument(
        "runs_root", nargs="?", default=DEFAULT_RUNS_ROOT,
        help=f"the runs root to watch (default {DEFAULT_RUNS_ROOT})",
    )
    top_p.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (for scripts and CI)",
    )
    top_p.add_argument(
        "--interval", type=_positive_seconds, default=2.0, metavar="SECONDS",
        help="refresh period (default 2)",
    )
    top_p.add_argument(
        "--stale-after", type=_positive_seconds, default=10.0, metavar="SECONDS",
        help="heartbeat silence before a worker is flagged STALE "
        "(default 10)",
    )
    top_p.set_defaults(func=_cmd_top)

    tail_p = sub.add_parser(
        "tail",
        help="print the merged event bus of a runs root, one line per "
        "event; --follow streams new events as they append",
    )
    tail_p.add_argument(
        "runs_root", nargs="?", default=DEFAULT_RUNS_ROOT,
        help=f"the runs root to read (default {DEFAULT_RUNS_ROOT})",
    )
    tail_p.add_argument(
        "-f", "--follow", action="store_true",
        help="keep polling for new events until interrupted",
    )
    tail_p.add_argument(
        "--interval", type=_positive_seconds, default=0.5, metavar="SECONDS",
        help="poll period under --follow (default 0.5)",
    )
    tail_p.set_defaults(func=_cmd_tail)

    doc_p = sub.add_parser(
        "doctor",
        help="audit a runs root for dead dispatch queues, torn records, "
        "and incomplete runs; --repair puts it right",
    )
    doc_p.add_argument(
        "runs_root", nargs="?", default=DEFAULT_RUNS_ROOT,
        help=f"the runs root to audit (default {DEFAULT_RUNS_ROOT})",
    )
    doc_p.add_argument(
        "--repair", action="store_true",
        help="delete dead dispatch queues and quarantine corrupt records "
        "into corrupt/ (default: report only)",
    )
    doc_p.set_defaults(func=_cmd_doctor)

    stats_p = sub.add_parser(
        "stats", help="render a past run directory's telemetry and faults"
    )
    stats_p.add_argument(
        "run_dir", help="a --out directory written by a previous repro run"
    )
    stats_p.add_argument(
        "--json", action="store_true",
        help="print the full machine-readable document instead of the report",
    )
    stats_p.set_defaults(func=_cmd_stats)

    rep_p = sub.add_parser("report", help="run experiments into one markdown report")
    rep_p.add_argument(
        "experiment", nargs="?", default="all", help="id, comma list, or 'all'"
    )
    _add_run_options(rep_p)
    rep_p.add_argument("--out", help="markdown file to write (default: stdout)")
    rep_p.set_defaults(func=_cmd_report)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns the process exit code."""
    apply_heap_policy()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # A downstream reader closed the pipe early (`repro tail | head`,
        # `repro top --once | grep -q ...`): exit quietly, like ls/git.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
