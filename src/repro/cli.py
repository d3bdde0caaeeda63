"""Command-line interface: run any reproduced experiment from a shell.

.. code-block:: console

    python -m repro list                      # what can be run
    python -m repro run E1                    # quick-scale Figure 1
    python -m repro run E2 --scale paper      # verbatim Section-7 scale
    python -m repro run E1 --jobs 4           # parallel sweep, same bytes
    python -m repro run E6 --seed 7 --timings # re-seeded, with stage times
    python -m repro run E8 --channel nakagami:m=2   # another fading family
    python -m repro run all --out results/    # everything, tables to disk
    python -m repro run E13 --run-id nightly  # journal results as they land
    python -m repro run E13 --resume nightly  # replay journal, run the rest
    python -m repro run E6 --on-error retry --task-timeout 120
    python -m repro run E1 --out r/ --trace --metrics   # telemetry, same bytes
    python -m repro run E1 --executor dispatch          # multi-host queue
    python -m repro worker .repro-runs        # serve dispatch queues
    python -m repro run E1 --monitor --out r/ # live event bus + metrics.prom
    python -m repro top .repro-runs           # live fleet dashboard (files only)
    python -m repro tail .repro-runs --follow # stream the event bus
    python -m repro stats r/                  # render a past run's telemetry
    python -m repro stats r/ --json           # machine-readable document
    python -m repro stats r/ --format openmetrics   # Prometheus exposition
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
require.  Telemetry never changes result bytes, at any ``--jobs``.
``repro stats <run-dir>`` renders what a past run left behind
(``--json`` for the machine-readable document, ``--format openmetrics``
for the Prometheus text exposition of ``metrics.json``).

Live observability (see DESIGN.md, "Live fleet observability"):
``--monitor`` appends structured events (task lifecycle, leases,
re-issues, quarantines, degraded writes, chaos faults, heartbeats) to
``<runs-root>/events/`` and — when ``--out`` is given — refreshes a
``metrics.prom`` OpenMetrics snapshot during the run.  ``repro top
<runs-root>`` is the refreshing files-only dashboard (stage progress,
ETAs, worker health with stale-heartbeat warnings); ``repro tail
<runs-root> --follow`` streams the merged event bus.  Both work from
any host mounting the runs root.  Events never change result bytes.

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
or ``dispatch``, a multi-host work-stealing file queue under
``--runs-root`` served by ``repro worker <runs-root>`` processes (on
this host or on any host mounting the same directory).
``--dispatch-workers N`` forks N local workers for single-host use;
``--lease-timeout`` bounds how long a silent worker holds a task before
it is re-issued.  Result bytes are identical on every backend at every
worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.backend import DTYPES, BackendConfig
from repro.engine import chaos, guards
from repro.engine.executor import resolve_jobs
from repro.engine.faults import EXECUTOR_MODES, ON_ERROR_MODES, ExecutionPolicy, RetryPolicy
from repro.engine.journal import JournalError, RunJournal
from repro.engine.registry import ExperimentSpec, all_specs, get_spec
from repro.obs import METRICS_FILENAME, TRACE_FILENAME, Telemetry, obs_scope, span
from repro.obs import events as obs_events
from repro.obs import profile as obs_profile
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
        return [get_spec(i) for i in ids]
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) + "; or 'all'") from exc


def _build_run(args, **telemetry) -> RunContext:
    """The run context this invocation's flags (and ``$REPRO_CHAOS``)
    describe; ``telemetry`` sets its metrics/spans/events switches."""
    try:
        plan = chaos.plan_from_env()
    except chaos.ChaosSpecError as exc:
        raise SystemExit(str(exc)) from exc
    return RunContext(
        experiment_ids=tuple(spec.experiment_id for spec in _resolve_specs(args.experiment)),
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
        if args.dispatch_workers:
            raise SystemExit("--dispatch-workers requires --executor dispatch")
        if args.dispatch_chunk is not None:
            raise SystemExit("--dispatch-chunk requires --executor dispatch")
        return args.executor
    from repro.engine.backends import DispatchBackend

    try:
        return DispatchBackend(
            args.runs_root,
            local_workers=args.dispatch_workers,
            lease_timeout=args.lease_timeout,
            chunk=args.dispatch_chunk,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


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


def _run_specs(args, run: RunContext, on_result, policy: ExecutionPolicy) -> int:
    """Run each experiment of ``run``, feed results to ``on_result``,
    and return the number of experiments with failing checks."""
    failures = 0
    for exp_id in run.experiment_ids:
        spec = get_spec(exp_id)
        try:
            result = spec.run(
                run.scale,
                seed=run.seed,
                jobs=args.jobs,
                channel=run.channel,
                policy=policy,
            )
        except (ValueError, JournalError, RuntimeError) as exc:
            raise SystemExit(str(exc)) from exc
        failures += not result.all_checks_pass
        on_result(spec, result)
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
    # The event bus lives under the *runs root* (not --out) so that
    # dispatch workers on other hosts append to the same directory and
    # `repro top`/`repro tail` see the whole fleet.  --monitor with --out
    # also collects metrics, for the live metrics.prom snapshot.
    run = _build_run(
        args,
        metrics=bool(args.metrics or (args.monitor and out_dir is not None)),
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
    telemetry = (
        Telemetry.for_run_dir(
            out_dir, trace=run.spans, metrics=run.metrics, profile=args.profile
        )
        if out_dir is not None
        else None
    )
    snapshotter = None
    if run.events is not None:
        # Opening is lazy and degraded writes are absorbed, so --monitor
        # can never take a run down or change result bytes.
        bus = obs_events.EventBus(run.events, obs_events.default_source("run"))
        if telemetry is None:
            telemetry = Telemetry(events=bus)
        else:
            telemetry.events = bus
        if out_dir is not None:
            from repro.obs.openmetrics import SNAPSHOT_FILENAME, MetricsSnapshotter

            snapshotter = MetricsSnapshotter(
                telemetry.metrics, out_dir / SNAPSHOT_FILENAME
            ).start()
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

    try:
        with obs_scope(telemetry):
            with span("run", kind="run", experiments=args.experiment):
                failures = _run_specs(args, run, on_result, policy)
            profile_files = obs_profile.profile_dumps()
    finally:
        if snapshotter is not None:
            snapshotter.stop()
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
                "profile": profile_files,
                "backend": run.backend.describe(),
                "events": (
                    str(telemetry.events.path) if telemetry.events is not None else None
                ),
                "prom": "metrics.prom" if snapshotter is not None else None,
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


def _cmd_worker(args) -> int:
    """Body of ``repro worker``: steal and execute dispatch tasks."""
    from repro.engine.backends.dispatch import worker_loop

    try:
        return worker_loop(
            args.runs_root,
            name=args.name,
            poll=args.poll,
            max_idle=args.max_idle,
            heartbeat=args.heartbeat,
        )
    except KeyboardInterrupt:
        return 130


def _cmd_doctor(args) -> int:
    """Body of ``repro doctor``: audit (and repair) a runs root."""
    from repro.engine.doctor import diagnose

    report = diagnose(
        args.runs_root, repair=args.repair, stale_after=args.stale_after
    )
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
    fmt = "json" if args.json else args.format
    try:
        if fmt == "json":
            print(json.dumps(stats_doc(args.run_dir), indent=2))
        elif fmt == "openmetrics":
            metrics_path = Path(args.run_dir) / METRICS_FILENAME
            try:
                doc = json.loads(metrics_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise RunDirError(
                    f"cannot read {metrics_path} ({exc}); the openmetrics "
                    "format renders metrics.json — run with --metrics or "
                    "--monitor"
                ) from exc
            from repro.obs.openmetrics import render

            sys.stdout.write(render(doc))
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


def _jobs_arg(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer, got {value!r}")
    try:
        resolve_jobs(jobs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return jobs


def _retries_arg(value: str) -> int:
    try:
        retries = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"retries must be an integer, got {value!r}")
    if retries < 1:
        raise argparse.ArgumentTypeError(f"retries must be >= 1, got {retries}")
    return retries


def _timeout_arg(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"timeout must be a number, got {value!r}")
    if seconds <= 0:
        raise argparse.ArgumentTypeError(f"timeout must be positive, got {value}")
    return seconds


def _period_arg(value: str) -> float:
    """A seconds period where 0 means "disabled" (unlike _timeout_arg)."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"period must be a number, got {value!r}")
    if seconds < 0:
        raise argparse.ArgumentTypeError(
            f"period must be >= 0 (0 disables), got {value}"
        )
    return seconds


def _topk_arg(value: str) -> int:
    try:
        k = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"topk must be an integer, got {value!r}")
    if k < 1:
        raise argparse.ArgumentTypeError(f"topk must be >= 1, got {k}")
    return k


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=("quick", "paper"), default="quick",
        help="quick (default) or verbatim paper parameters",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment's root seed",
    )
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="worker processes for sweep-style experiments "
        "(0 = all cores; results are identical for every value)",
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
        "--retries", type=_retries_arg, default=3, metavar="N",
        help="max attempts per task under --on-error retry (default 3)",
    )
    parser.add_argument(
        "--quarantine-after", type=_retries_arg, default=3, metavar="K",
        help="quarantine a task after it kills its worker K times "
        "(default 3): it settles as a structured failure instead of "
        "being re-issued forever, so the rest of the sweep completes",
    )
    parser.add_argument(
        "--task-timeout", type=_timeout_arg, default=None, metavar="SECONDS",
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
        "--topk", type=_topk_arg, default=None, metavar="K",
        help="keep only the K strongest interferers per receiver (sparse "
        "gain matrices for large n; default dense/exact)",
    )
    parser.add_argument(
        "--executor", choices=EXECUTOR_MODES, default="auto",
        help="where sweep tasks run: auto (default; serial for --jobs 1, "
        "a local process pool otherwise), serial, pool, or dispatch — a "
        "work-stealing queue under --runs-root served by 'repro worker' "
        "processes, possibly on other hosts (identical result bytes on "
        "every backend)",
    )
    parser.add_argument(
        "--dispatch-workers", type=int, default=0, metavar="N",
        help="with --executor dispatch: also fork N local worker "
        "processes from this one for the duration of the run (default 0 "
        "= rely on externally started 'repro worker' processes)",
    )
    parser.add_argument(
        "--dispatch-chunk", type=int, default=None, metavar="K",
        help="with --executor dispatch: tasks per claimed work unit "
        "(default: auto-sized from task and worker counts; results are "
        "identical for every chunk size)",
    )
    parser.add_argument(
        "--lease-timeout", type=_timeout_arg, default=10.0, metavar="SECONDS",
        help="with --executor dispatch: re-issue a claimed task whose "
        "worker has not heartbeat for this long (default 10)",
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
        help="append live structured events (task lifecycle, leases, "
        "heartbeats, faults) under <runs-root>/events/ for repro "
        "top/tail, and refresh a metrics.prom OpenMetrics snapshot in "
        "--out during the run; never changes result bytes",
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

    worker_p = sub.add_parser(
        "worker",
        help="serve dispatch queues under a runs root (start one per "
        "core, on any host sharing the directory)",
    )
    worker_p.add_argument(
        "runs_root",
        help="the shared --runs-root directory dispatch runs publish "
        "their task queues under",
    )
    worker_p.add_argument(
        "--name", default=None, metavar="NAME",
        help="worker identity on leases and task spans "
        "(default <hostname>-<pid>)",
    )
    worker_p.add_argument(
        "--poll", type=_timeout_arg, default=0.1, metavar="SECONDS",
        help="idle queue-scan interval (default 0.1)",
    )
    worker_p.add_argument(
        "--max-idle", type=_timeout_arg, default=None, metavar="SECONDS",
        help="exit after this long with no work (default: serve forever)",
    )
    worker_p.add_argument(
        "--heartbeat", type=_period_arg,
        default=obs_events.DEFAULT_HEARTBEAT_PERIOD, metavar="SECONDS",
        help="period of liveness events (host/pid/RSS/tasks-per-second) "
        "on the runs root's event bus, once a monitored run creates it "
        f"(default {obs_events.DEFAULT_HEARTBEAT_PERIOD:g}; 0 disables)",
    )
    worker_p.set_defaults(func=_cmd_worker)

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
        "--interval", type=_timeout_arg, default=2.0, metavar="SECONDS",
        help="refresh period (default 2)",
    )
    top_p.add_argument(
        "--stale-after", type=_timeout_arg, default=10.0, metavar="SECONDS",
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
        "--interval", type=_timeout_arg, default=0.5, metavar="SECONDS",
        help="poll period under --follow (default 0.5)",
    )
    tail_p.set_defaults(func=_cmd_tail)

    doc_p = sub.add_parser(
        "doctor",
        help="audit a runs root for stale leases, orphaned claims, torn "
        "records, and incomplete runs; --repair puts it right",
    )
    doc_p.add_argument(
        "runs_root", nargs="?", default=DEFAULT_RUNS_ROOT,
        help=f"the runs root to audit (default {DEFAULT_RUNS_ROOT})",
    )
    doc_p.add_argument(
        "--repair", action="store_true",
        help="release dead leases, re-queue orphaned claims, and "
        "quarantine corrupt records into corrupt/ (default: report only)",
    )
    doc_p.add_argument(
        "--stale-after", type=_timeout_arg, default=60.0, metavar="SECONDS",
        help="age of heartbeat silence before a lease counts as stale "
        "(default 60; keep it well above the run's --lease-timeout)",
    )
    doc_p.set_defaults(func=_cmd_doctor)

    stats_p = sub.add_parser(
        "stats", help="render a past run directory's telemetry and faults"
    )
    stats_p.add_argument(
        "run_dir", help="a --out directory written by a previous repro run"
    )
    stats_p.add_argument(
        "--format", choices=("human", "json", "openmetrics"), default="human",
        help="human (default), json (the full machine-readable document), "
        "or openmetrics (the Prometheus text exposition of metrics.json)",
    )
    stats_p.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json",
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
