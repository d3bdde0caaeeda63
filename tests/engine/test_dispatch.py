"""Dispatch-backend tests: the file-queue protocol, external ``repro
worker`` processes, lease heartbeats, and worker-loss recovery.

Workers here are real subprocesses (``python -m repro worker``, the
entry a second host runs — minus the network filesystem) or the
backend's own ``local_workers``, which are forked from the dispatcher
and call ``worker_loop`` directly, so they do not exercise the
``python -m repro worker`` entry; the external-worker tests do.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.backend import BackendConfig
from repro.engine.backends import DispatchBackend, dispatch, resolve_executor
from repro.engine.backends.dispatch import (
    _parse_task_name,
    _task_name,
    sleep_echo_task,
)
from repro.engine.chaos import ChaosPlan, Fault
from repro.engine.executor import Task, make_tasks, map_tasks
from repro.engine.faults import RetryPolicy, is_failure
from repro.obs import metrics as obs_metrics
from repro.run_context import RunContext, current_run, install_run, run_scope


def _use_chaos(plan) -> None:
    """Put ``plan`` in the run context for the rest of the test."""
    install_run(replace(current_run(), chaos=plan))


def _double(task: Task) -> int:
    return task.payload * 2


def _boom(task: Task) -> int:
    raise ValueError(f"rejected payload {task.payload}")


def _boom_on_three(task: Task) -> int:
    if task.payload == 3:
        raise ValueError("rejected payload 3")
    return task.payload * 2


def _current_run(task: Task) -> RunContext:
    """The run context of the process executing the task (module-level,
    so an external worker can import it)."""
    return current_run()


def _spawn_worker(root, name: str) -> subprocess.Popen:
    """A real external worker: the exact process a second host would run."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker", str(root),
            "--name", name, "--poll", "0.02", "--max-idle", "60",
        ],
        env=env,
        cwd=str(Path(__file__).resolve().parents[2]),
    )


class TestTaskNames:
    def test_round_trip(self):
        assert _parse_task_name(_task_name(7, 2)) == (7, 2)
        assert _parse_task_name(_task_name(123456, 11)) == (123456, 11)

    def test_garbage_rejected(self):
        assert _parse_task_name("task-xx-a1.pkl") is None
        assert _parse_task_name("lease-000001.json") is None


class TestDispatchBasics:
    def test_local_workers_execute_and_queue_is_removed(self, tmp_path):
        root = tmp_path / "runs"
        backend = DispatchBackend(root, local_workers=2, poll=0.02)
        try:
            out = map_tasks(_double, make_tasks([3, 1, 2]), executor=backend)
        finally:
            backend.close()
        assert out == [6, 2, 4]
        assert list((root / "queues").iterdir()) == []

    def test_external_worker_serves_queue(self, tmp_path):
        root = tmp_path / "runs"
        worker = _spawn_worker(root, "ext-1")
        backend = DispatchBackend(root, poll=0.02)
        try:
            out = map_tasks(
                sleep_echo_task, make_tasks([{"v": i} for i in range(6)]),
                executor=backend,
            )
        finally:
            backend.close()
            worker.terminate()
            worker.wait(timeout=10)
        assert out == [{"v": i} for i in range(6)]

    def test_backend_reused_across_stages(self, tmp_path):
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            first = map_tasks(_double, make_tasks([1, 2]), executor=backend,
                              stage="one")
            second = map_tasks(_double, make_tasks([5]), executor=backend,
                               stage="two")
        finally:
            backend.close()
        assert (first, second) == ([2, 4], [10])

    def test_rejects_nonpositive_lease_timeout(self, tmp_path):
        with pytest.raises(ValueError, match="lease_timeout"):
            DispatchBackend(tmp_path, lease_timeout=0.0)

    def test_external_worker_installs_the_whole_run_context(self, tmp_path):
        """A fresh ``repro worker`` interpreter inherits nothing from the
        dispatcher, so every setting it computes under must arrive in
        the queue's bundle: here a non-default backend, strict guards, a
        chaos plan whose fault never fires, and both telemetry switches."""
        root = tmp_path / "runs"
        plan = ChaosPlan(
            state_dir=str(tmp_path / "chaos"),
            faults=(Fault(kind="raise", stage="never-run", index=0),),
        )
        worker = _spawn_worker(root, "ctx")
        backend = DispatchBackend(root, poll=0.02)
        try:
            with run_scope(
                backend=BackendConfig(dtype="float32", topk=4), guards="strict",
                chaos=plan, metrics=True, spans=True,
            ) as run:
                out = _run_with_deadline(60.0, lambda: map_tasks(
                    _current_run, make_tasks(range(3)), executor=backend, stage="ctx",
                ))
        finally:
            backend.close()
            worker.terminate()
            worker.wait(timeout=10)
        assert out == [run] * 3
        assert not list((tmp_path / "chaos").glob("*"))  # the fault never fired

    def test_resolve_executor_dispatch_uses_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH_ROOT", str(tmp_path / "env-root"))
        backend = resolve_executor("dispatch", 1, 1)
        assert backend.root == tmp_path / "env-root"


class TestDispatchChunking:
    """Per-claim task chunking: workers claim work units of consecutive
    tasks, stream one envelope per member, and results stay byte-
    identical to the serial backend at every chunk size."""

    def test_rejects_chunk_below_one(self, tmp_path):
        with pytest.raises(ValueError, match="chunk"):
            DispatchBackend(tmp_path, chunk=0)

    def test_auto_chunk_scales_with_tasks_and_workers(self, tmp_path):
        auto = DispatchBackend(tmp_path, local_workers=2)
        assert auto._resolve_chunk(4) == 1  # fewer tasks than 4x workers
        assert auto._resolve_chunk(64) == 8
        assert auto._resolve_chunk(10_000) == 16  # clamped
        explicit = DispatchBackend(tmp_path, chunk=5)
        assert explicit._resolve_chunk(10_000) == 5

    @pytest.mark.parametrize("chunk", [1, 3, 16, None])
    def test_results_byte_identical_to_serial(self, tmp_path, chunk):
        tasks = make_tasks(range(10), root_seed=7)
        expected = map_tasks(_double, tasks, executor="serial", stage="chunked")
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=2, poll=0.02, chunk=chunk
        )
        try:
            out = map_tasks(_double, tasks, executor=backend, stage="chunked")
        finally:
            backend.close()
        assert pickle.dumps(out) == pickle.dumps(expected)

    def test_failed_member_does_not_poison_unit_siblings(self, tmp_path):
        # Index 3 fails inside a 4-task unit; its siblings' envelopes
        # settle normally and only index 3 carries a failure.
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=1, poll=0.02, chunk=4
        )
        try:
            out = map_tasks(
                _boom_on_three, make_tasks(range(6)), executor=backend,
                on_error="skip",
            )
        finally:
            backend.close()
        assert [out[i] for i in (0, 1, 2, 4, 5)] == [0, 2, 4, 8, 10]
        assert is_failure(out[3]) and out[3].error_type == "ValueError"

    def test_chunked_worker_lost_reissues_survivors(self, tmp_path):
        """Kill a worker mid-unit: already-streamed member envelopes
        stand, the unfinished members are re-issued as singleton units,
        and the sweep still matches serial bytes."""
        tasks = make_tasks(range(5), root_seed=13)
        expected = map_tasks(_double, tasks, executor="serial", stage="clean")
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="worker-lost", stage="wl-chunk", index=2),),
            )
        )
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=2, lease_timeout=0.8, poll=0.02,
            chunk=3,
        )
        try:
            with pytest.warns(UserWarning, match="stopped heartbeating"):
                out = map_tasks(_double, tasks, executor=backend,
                                stage="wl-chunk")
        finally:
            backend.close()
            _use_chaos(None)
        assert pickle.dumps(out) == pickle.dumps(expected)


class TestDispatchFaults:
    def test_worker_exception_propagates_under_raise(self, tmp_path):
        backend = DispatchBackend(tmp_path / "runs", local_workers=1, poll=0.02)
        try:
            with pytest.raises(ValueError, match="rejected payload 4"):
                map_tasks(_boom, make_tasks([4]), executor=backend)
        finally:
            backend.close()

    def test_persistent_failure_settles_structured_slot(self, tmp_path):
        backend = DispatchBackend(tmp_path / "runs", local_workers=1, poll=0.02)
        try:
            out = map_tasks(
                _boom, make_tasks([9]), executor=backend,
                on_error="retry", retry=RetryPolicy(max_attempts=2,
                                                    base_delay=0.001),
            )
        finally:
            backend.close()
        failure = out[0]
        assert is_failure(failure)
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2

    def test_hung_task_times_out_into_failure_slot(self, tmp_path):
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        payloads = [{"v": 0}, {"v": 1, "sleep": 30.0}, {"v": 2}]
        try:
            with pytest.warns(UserWarning, match="wall-clock budget"):
                out = map_tasks(
                    sleep_echo_task, make_tasks(payloads), executor=backend,
                    on_error="skip", timeout=0.75,
                )
        finally:
            backend.close()
        assert out[0] == {"v": 0}
        assert out[2] == {"v": 2}
        assert is_failure(out[1]) and out[1].kind == "timeout"

    def test_chaos_worker_lost_reissues_and_matches_serial(self, tmp_path):
        """A worker hard-killed *while holding a lease* (the chaos
        ``worker-lost`` fault) must not lose the task or change bytes:
        the dispatcher re-issues it to a surviving worker."""
        tasks = make_tasks(range(5), root_seed=13)
        expected = map_tasks(_double, tasks, executor="serial", stage="clean")
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="worker-lost", stage="wl", index=2),),
            )
        )
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=2, lease_timeout=0.8, poll=0.02
        )
        try:
            with pytest.warns(UserWarning, match="stopped heartbeating"):
                out = map_tasks(_double, tasks, executor=backend, stage="wl")
        finally:
            backend.close()
            _use_chaos(None)
        assert out == expected

    def test_sigkilled_external_worker_task_reissued(self, tmp_path):
        """The literal multi-host failure: SIGKILL an external worker
        mid-task.  Its lease goes stale, the dispatcher re-issues, and a
        second worker finishes the sweep with identical results."""
        root = tmp_path / "runs"
        first = _spawn_worker(root, "victim")
        second_started = threading.Event()

        def kill_first_then_start_second():
            # Wait until the victim holds the lease of the slow task.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                leases = list(root.glob("queues/*/leases/lease-*.json"))
                held = [
                    doc for doc in (json.loads(p.read_text()) for p in leases
                                    if p.exists())
                    if doc.get("worker") == "victim"
                ]
                if held:
                    break
                time.sleep(0.02)
            os.kill(first.pid, signal.SIGKILL)
            kill_first_then_start_second.worker = _spawn_worker(root, "rescuer")
            second_started.set()

        killer = threading.Thread(target=kill_first_then_start_second)
        killer.start()
        backend = DispatchBackend(root, lease_timeout=1.0, poll=0.02)
        payloads = [{"v": 0, "sleep": 1.5}, {"v": 1, "sleep": 1.5},
                    {"v": 2}, {"v": 3}]
        try:
            out = map_tasks(
                sleep_echo_task, make_tasks(payloads), executor=backend,
                stage="killed",
            )
        finally:
            backend.close()
            killer.join(timeout=30)
            first.wait(timeout=10)
            if second_started.is_set():
                rescuer = kill_first_then_start_second.worker
                rescuer.terminate()
                rescuer.wait(timeout=10)
        assert out == payloads


def _run_with_deadline(seconds: float, call):
    """Run ``call()`` on a daemon thread and return its outcome, or
    fail the test when it has not returned within ``seconds`` (a hung
    dispatcher must fail the suite, never stall it)."""
    box = {}

    def target():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                box["value"] = call()
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"dispatch stage still running after {seconds}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _alive(pid: int) -> bool:
    """Whether ``pid`` names a running (not zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return True
    return "\nState:\tZ" not in status


class TestLocalWorkers:
    """The backend's forked local workers: restarted when they die,
    waking the dispatcher on each result, keeping a dispatch worker's
    chaos semantics, and never outliving the dispatcher."""

    def test_dead_local_worker_is_restarted(self, tmp_path):
        # The only local worker dies holding task 0; without a restart
        # the re-issued task is never claimed and the stage hangs.
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="worker-lost", stage="respawn", index=0),),
            )
        )
        registry = obs_metrics.MetricsRegistry()
        obs_metrics.install(registry)
        backend = DispatchBackend(
            tmp_path / "runs", local_workers=1, lease_timeout=0.6, poll=0.02
        )
        try:
            out = _run_with_deadline(30.0, lambda: map_tasks(
                _double, make_tasks(range(3)), executor=backend,
                stage="respawn", on_error="retry",
            ))
        finally:
            backend.close()
            obs_metrics.install(None)
        assert out == [0, 2, 4]
        assert registry.counters["executor.dispatch.worker_restarts"] >= 1
        assert registry.counters["executor.worker_losses"] == 1

    def test_restart_bound_stops_workers_that_die_before_claiming(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(dispatch, "_local_worker", _die_at_once)
        queue = SimpleNamespace(
            posted_by=set(), leased_to=lambda worker: False,
            state=SimpleNamespace(stage="barren"),
        )
        fleet = dispatch._LocalFleet(tmp_path / "runs", 2)
        try:
            for _ in range(2 * dispatch._BARREN_EXITS):
                for proc in fleet.procs:
                    proc.join(timeout=10)
                fleet.revive(queue)
            assert fleet.exhausted()
            assert fleet.starts == [dispatch._BARREN_EXITS] * 2
        finally:
            fleet.close()

    def test_idle_exit_does_not_count_towards_the_restart_bound(
        self, tmp_path, monkeypatch
    ):
        # A worker past its max_idle between stages exits 0; the next
        # stage must get a new one however often that happens.
        monkeypatch.setattr(dispatch, "_local_worker", _idle_out)
        queue = SimpleNamespace(
            posted_by=set(), leased_to=lambda worker: False,
            state=SimpleNamespace(stage="idle"),
        )
        fleet = dispatch._LocalFleet(tmp_path / "runs", 1)
        try:
            for _ in range(2 * dispatch._BARREN_EXITS):
                fleet.procs[0].join(timeout=10)
                fleet.revive(queue)
            assert fleet.starts == [2 * dispatch._BARREN_EXITS + 1]
            assert not fleet.exhausted()
        finally:
            fleet.close()

    def test_exit_fault_is_a_task_error_that_a_retry_absorbs(self, tmp_path):
        # A declared dispatch worker downgrades ``exit`` to an exception
        # however it was started; only ``worker-lost`` kills it.
        tasks = make_tasks(range(4), root_seed=3)
        expected = map_tasks(_double, tasks, executor="serial", stage="clean")
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="exit", stage="exit-fault", index=1),),
            )
        )
        registry = obs_metrics.MetricsRegistry()
        obs_metrics.install(registry)
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            out = _run_with_deadline(30.0, lambda: map_tasks(
                _double, tasks, executor=backend, stage="exit-fault",
                on_error="retry",
                retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            ))
        finally:
            backend.close()
            obs_metrics.install(None)
        assert pickle.dumps(out) == pickle.dumps(expected)
        assert registry.counters["executor.retries"] == 1
        assert "executor.worker_losses" not in registry.counters
        assert "executor.dispatch.worker_restarts" not in registry.counters

    def test_results_wake_the_dispatcher(self, tmp_path):
        # With a 30-s poll, only the workers' wake-ups can finish the
        # stage in time.
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=30.0)
        try:
            out = _run_with_deadline(10.0, lambda: map_tasks(
                _double, make_tasks(range(8)), executor=backend, stage="wake",
            ))
        finally:
            backend.close()
        assert out == [2 * i for i in range(8)]

    def test_monitored_traced_run_keeps_worker_telemetry_apart(
        self, tmp_path, capsys
    ):
        # The sweeps_campaign flag set: forked workers must not write
        # through the bus, trace writer or metrics sink they inherit.
        from repro.cli import main

        plain, out, root = tmp_path / "plain", tmp_path / "out", tmp_path / "root"
        assert main(["run", "E1", "--out", str(plain)]) == 0
        assert main([
            "run", "E1", "--jobs", "2", "--executor", "dispatch",
            "--dispatch-workers", "2", "--run-id", "iso", "--monitor",
            "--trace", "--metrics", "--runs-root", str(root), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert (out / "E1.json").read_bytes() == (plain / "E1.json").read_bytes()

        def events(path):
            return [json.loads(line) for line in path.read_text().splitlines()]

        events_dir = root / "events"
        run_events = [e for p in events_dir.glob("run-*.jsonl") for e in events(p)]
        assert run_events
        assert {e["pid"] for e in run_events} == {os.getpid()}
        assert not [e for e in run_events if e["kind"] in ("worker-start", "task-start")]
        worker_files = sorted(events_dir.glob("worker-local-*.jsonl"))
        assert len(worker_files) == 2
        worker_pids = set()
        for path in worker_files:
            pids = {e["pid"] for e in events(path)}
            assert len(pids) == 1 and os.getpid() not in pids
            worker_pids |= pids
        assert len(worker_pids) == 2
        spans = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        ids = [sp["id"] for sp in spans]
        assert len(ids) == len(set(ids))
        assert any(
            sp["kind"] == "task" and sp.get("meta", {}).get("worker", "").startswith("local-")
            for sp in spans
        )

    def test_no_local_worker_alive_after_close(self, tmp_path):
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            with pytest.raises(ValueError, match="rejected payload 4"):
                map_tasks(_boom, make_tasks([4]), executor=backend)
            pids = [proc.pid for proc in backend._fleet.procs]
            assert all(_alive(pid) for pid in pids)
        finally:
            backend.close()
        assert not any(_alive(pid) for pid in pids)

    def test_local_workers_do_not_outlive_a_dispatcher_that_raises(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.engine.backends import DispatchBackend\n"
            "from repro.engine.executor import make_tasks, map_tasks\n"
            "from tests.engine.test_dispatch import _boom\n"
            "backend = DispatchBackend(sys.argv[1], local_workers=2, poll=0.02)\n"
            "try:\n"
            "    map_tasks(_boom, make_tasks([4]), executor=backend)\n"
            "finally:\n"
            "    print(*[p.pid for p in backend._fleet.procs], flush=True)\n"
        )
        env = dict(os.environ)
        repo = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "runs")],
            env=env, cwd=str(repo), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and "rejected payload 4" in proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)


def _die_at_once(root, name, wake_r, wake_w) -> None:
    """A local worker body that exits before claiming anything."""
    os._exit(3)


def _idle_out(root, name, wake_r, wake_w) -> None:
    """A local worker body that exits as ``worker_loop`` does after
    ``max_idle`` seconds without work."""
    os._exit(0)
