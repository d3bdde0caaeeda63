"""Dispatch-backend tests: the file-queue protocol, the local workers the
backend forks, and worker-loss recovery.

Workers are the backend's own ``local_workers``, forked from the
dispatcher.  The tests that kill a dispatcher run it in a subprocess.
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

from repro import obs
from repro.backend import BackendConfig
from repro.engine.backends import DispatchBackend, dispatch, resolve_executor
from repro.engine.backends.dispatch import (
    _parse_task_name,
    _task_name,
    sleep_echo_task,
)
from repro.engine.chaos import ChaosPlan, Fault
from repro.engine.executor import JOBS_CAP, Task, make_tasks, map_tasks
from repro.engine.faults import ExecutionPolicy, RetryPolicy, is_failure
from repro.obs import Telemetry
from repro.obs import metrics as obs_metrics
from repro.run_context import RunContext, current_run, install_run, run_scope

REPO = Path(__file__).resolve().parents[2]


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
    """The run context of the process executing the task."""
    return current_run()


def _dispatcher(script: str, root, **popen) -> subprocess.Popen:
    """A dispatcher in a process of its own, running ``script`` with the
    runs root as ``sys.argv[1]``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", script, str(root)], env=env, cwd=str(REPO), **popen
    )


def _wait_for(predicate, seconds: float = 30.0) -> None:
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.02)


class TestTaskNames:
    def test_round_trip(self):
        assert _parse_task_name(_task_name(7, 2)) == (7, 2, None)
        assert _parse_task_name(_task_name(123456, 11, "local-9-1.2")) == (
            123456, 11, "local-9-1.2"
        )

    def test_garbage_rejected(self):
        assert _parse_task_name("task-xx-a1.pkl") is None
        assert _parse_task_name("lease-000001.json") is None
        assert _parse_task_name("task-000001-a1@.pkl") is None


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

    def test_rejects_worker_count_outside_one_to_jobs_cap(self, tmp_path):
        for workers in (0, -2, JOBS_CAP + 1):
            with pytest.raises(ValueError, match="local_workers"):
                DispatchBackend(tmp_path, local_workers=workers)

    def test_forked_workers_install_each_stages_run_context(self, tmp_path):
        """Workers forked once serve every stage, so each stage's settings
        must arrive in its queue's bundle: a non-default backend, strict
        guards, a chaos plan whose fault never fires and both telemetry
        switches for the first stage, the defaults for the second."""
        plan = ChaosPlan(
            state_dir=str(tmp_path / "chaos"),
            faults=(Fault(kind="raise", stage="never-run", index=0),),
        )
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            with run_scope(
                backend=BackendConfig(dtype="float32", topk=4), guards="strict",
                chaos=plan, metrics=True, spans=True,
            ) as tuned:
                first = map_tasks(
                    _current_run, make_tasks(range(3)), executor=backend, stage="tuned",
                )
            pids = [proc.pid for proc in backend._fleet.procs]
            plain = current_run()
            second = map_tasks(
                _current_run, make_tasks(range(3)), executor=backend, stage="plain",
            )
            assert [proc.pid for proc in backend._fleet.procs] == pids
        finally:
            backend.close()
        assert tuned != plain
        assert first == [tuned] * 3
        assert second == [plain] * 3
        assert not list((tmp_path / "chaos").glob("*"))  # the fault never fired

    def test_resolve_executor_refuses_the_bare_dispatch_string(self):
        with pytest.raises(ValueError, match="DispatchBackend"):
            resolve_executor("dispatch", 1, 1)
        with pytest.raises(ValueError, match="executor"):
            ExecutionPolicy(executor="dispatch")


class TestDispatchChunking:
    """Work units of consecutive tasks, sized from the task and worker
    counts: workers claim whole units, stream one envelope per member,
    and results stay byte-identical to the serial backend at every
    unit size."""

    #: Task counts the sizing rule maps to each unit size on 2 workers.
    TASKS_FOR_CHUNK = {1: 10, 3: 24, 16: 128}

    def test_auto_chunk_scales_with_tasks_and_workers(self, tmp_path):
        two = DispatchBackend(tmp_path, local_workers=2)
        assert two._chunk(4) == 1  # fewer tasks than 4x workers
        assert two._chunk(64) == 8
        assert two._chunk(10_000) == 16  # clamped
        assert DispatchBackend(tmp_path, local_workers=1)._chunk(16) == 4

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_results_byte_identical_to_serial(self, tmp_path, chunk):
        tasks = make_tasks(range(self.TASKS_FOR_CHUNK[chunk]), root_seed=7)
        expected = map_tasks(_double, tasks, executor="serial", stage="chunked")
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        assert backend._chunk(len(tasks)) == chunk
        try:
            out = map_tasks(_double, tasks, executor=backend, stage="chunked")
        finally:
            backend.close()
        assert pickle.dumps(out) == pickle.dumps(expected)

    def test_failed_member_does_not_poison_unit_siblings(self, tmp_path):
        # 16 tasks on one worker make units of 4: index 3 fails inside
        # the first; its siblings' envelopes settle normally and only
        # index 3 carries a failure.
        backend = DispatchBackend(tmp_path / "runs", local_workers=1, poll=0.02)
        assert backend._chunk(16) == 4
        try:
            out = map_tasks(
                _boom_on_three, make_tasks(range(16)), executor=backend,
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
        tasks = make_tasks(range(24), root_seed=13)  # units of 3
        expected = map_tasks(_double, tasks, executor="serial", stage="clean")
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="worker-lost", stage="wl-chunk", index=2),),
            )
        )
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            with pytest.warns(UserWarning, match="exited holding it"):
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
        """A worker hard-killed *while holding a claim* (the chaos
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
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            with pytest.warns(UserWarning, match="exited holding it"):
                out = map_tasks(_double, tasks, executor=backend, stage="wl")
        finally:
            backend.close()
            _use_chaos(None)
        assert out == expected

    def test_sigkilled_local_worker_task_reissued_at_once(self, tmp_path):
        """SIGKILL one of two workers during 8 tasks of 0.5 s: its unit is
        re-issued as soon as the fleet sees the exit, so the stage takes
        about one task longer than the clean 2 s, not a timeout longer."""
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        payloads = [{"v": i, "sleep": 0.5} for i in range(8)]

        def kill_one_worker():
            _wait_for(lambda: backend._fleet is not None)
            time.sleep(1.2)
            os.kill(backend._fleet.procs[0].pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_one_worker)
        killer.start()
        start = time.monotonic()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = map_tasks(
                    sleep_echo_task, make_tasks(payloads), executor=backend,
                    stage="killed",
                )
            elapsed = time.monotonic() - start
        finally:
            killer.join(timeout=30)
            backend.close()
        assert out == payloads
        assert any("worker-lost" in str(w.message) for w in caught)
        assert elapsed < 6.0

    def test_result_write_failure_reissues_the_task(self, tmp_path):
        """A result envelope that cannot be written (a full disk) leaves a
        claim that vanished without its result: the task is re-issued."""
        tasks = make_tasks(range(6), root_seed=5)
        expected = map_tasks(_double, tasks, executor="serial", stage="clean")
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="enospc", site="dispatch.result", stage="full",
                              index=4),),
            )
        )
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            with pytest.warns(UserWarning, match="vanished without its results"):
                out = map_tasks(_double, tasks, executor=backend, stage="full")
        finally:
            backend.close()
            _use_chaos(None)
        assert pickle.dumps(out) == pickle.dumps(expected)

    def test_unpublishable_queue_runs_in_the_dispatcher(self, tmp_path):
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="enospc", site="dispatch.queue"),),
            )
        )
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            with pytest.warns(UserWarning, match="degraded-serial"):
                out = map_tasks(_double, make_tasks(range(4)), executor=backend)
        finally:
            backend.close()
            _use_chaos(None)
        assert out == [0, 2, 4, 6]
        assert backend._fleet is None  # nothing was published, so none forked


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
    chaos semantics, serving only their own dispatcher, and never
    outliving it."""

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
        obs.install(Telemetry(metrics=registry))
        backend = DispatchBackend(tmp_path / "runs", local_workers=1, poll=0.02)
        try:
            out = _run_with_deadline(30.0, lambda: map_tasks(
                _double, make_tasks(range(3)), executor=backend,
                stage="respawn", on_error="retry",
            ))
        finally:
            backend.close()
            obs.install(None)
        assert out == [0, 2, 4]
        assert registry.counters["executor.dispatch.worker_restarts"] >= 1
        assert registry.counters["executor.worker_losses"] == 1

    def test_restart_bound_stops_workers_that_die_before_claiming(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(dispatch, "_local_worker", _die_at_once)
        queue = SimpleNamespace(
            worker_exited=lambda worker: False,
            state=SimpleNamespace(stage="barren"),
        )
        fleet = dispatch._LocalFleet(tmp_path / "runs", 2, "barren-")
        try:
            for _ in range(2 * dispatch._BARREN_EXITS):
                for proc in fleet.procs:
                    proc.join(timeout=10)
                fleet.revive(queue)
            assert fleet.exhausted()
            assert fleet.starts == [dispatch._BARREN_EXITS] * 2
        finally:
            fleet.close()

    def test_exhausted_fleet_runs_the_rest_in_the_dispatcher(
        self, tmp_path, monkeypatch
    ):
        # Every worker dies before claiming, so every slot reaches its
        # restart bound; the stage then completes in this process.
        monkeypatch.setattr(dispatch, "_local_worker", _die_at_once)
        registry = obs_metrics.MetricsRegistry()
        obs.install(Telemetry(metrics=registry))
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            out = _run_with_deadline(30.0, lambda: map_tasks(
                _double, make_tasks(range(5)), executor=backend, stage="exhausted",
            ))
        finally:
            backend.close()
            obs.install(None)
        assert out == [0, 2, 4, 6, 8]
        assert registry.counters["executor.events.degraded-serial"] == 1

    def test_exit_fault_is_a_task_error_that_a_retry_absorbs(self, tmp_path):
        # A declared dispatch worker downgrades ``exit`` to an exception;
        # only ``worker-lost`` kills it.
        tasks = make_tasks(range(4), root_seed=3)
        expected = map_tasks(_double, tasks, executor="serial", stage="clean")
        _use_chaos(
            ChaosPlan(
                state_dir=str(tmp_path / "chaos"),
                faults=(Fault(kind="exit", stage="exit-fault", index=1),),
            )
        )
        registry = obs_metrics.MetricsRegistry()
        obs.install(Telemetry(metrics=registry))
        backend = DispatchBackend(tmp_path / "runs", local_workers=2, poll=0.02)
        try:
            out = _run_with_deadline(30.0, lambda: map_tasks(
                _double, tasks, executor=backend, stage="exit-fault",
                on_error="retry",
                retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            ))
        finally:
            backend.close()
            obs.install(None)
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
        proc = _dispatcher(
            script, tmp_path / "runs",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode != 0 and "rejected payload 4" in stderr
        pids = [int(pid) for pid in stdout.split()]
        assert len(pids) == 2
        _wait_for(lambda: not any(_alive(pid) for pid in pids), 10.0)

    def test_workers_exit_with_a_terminated_dispatcher(self, tmp_path):
        # SIGTERM runs no cleanup in the dispatcher, so its workers must
        # notice on their own that it is gone.
        script = (
            "import sys, threading, time\n"
            "from repro.engine.backends import DispatchBackend\n"
            "from repro.engine.backends.dispatch import sleep_echo_task\n"
            "from repro.engine.executor import make_tasks, map_tasks\n"
            "backend = DispatchBackend(sys.argv[1], local_workers=2, poll=0.02)\n"
            "def report():\n"
            "    while backend._fleet is None:\n"
            "        time.sleep(0.01)\n"
            "    print(*[p.pid for p in backend._fleet.procs], flush=True)\n"
            "threading.Thread(target=report, daemon=True).start()\n"
            "map_tasks(sleep_echo_task, make_tasks([{'sleep': 0.2}] * 100),\n"
            "          executor=backend)\n"
        )
        proc = _dispatcher(script, tmp_path / "runs", stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2 and all(_alive(pid) for pid in pids)
            proc.terminate()
            proc.wait(timeout=10)
            time.sleep(3.0)
            assert not any(_alive(pid) for pid in pids)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_workers_serve_only_their_own_dispatchers_queues(self, tmp_path):
        # A dispatcher and its worker are SIGKILLed with one-second units
        # still queued; a new dispatcher on the same root must leave that
        # queue alone.
        root = tmp_path / "runs"
        script = (
            "import sys\n"
            "from repro.engine.backends import DispatchBackend\n"
            "from repro.engine.backends.dispatch import sleep_echo_task\n"
            "from repro.engine.executor import make_tasks, map_tasks\n"
            "backend = DispatchBackend(sys.argv[1], local_workers=1, poll=0.02)\n"
            "map_tasks(sleep_echo_task, make_tasks([{'sleep': 1.0}] * 6),\n"
            "          executor=backend)\n"
        )
        proc = _dispatcher(script, root, start_new_session=True)
        try:
            _wait_for(lambda: list(root.glob("queues/*/claimed/*.pkl")))
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        (dead,) = list((root / "queues").iterdir())
        todo = sorted(p.name for p in (dead / "todo").iterdir())
        assert len(todo) == 5

        backend = DispatchBackend(root, local_workers=1, poll=0.02)
        start = time.monotonic()
        try:
            out = map_tasks(_double, make_tasks(range(4)), executor=backend)
        finally:
            backend.close()
        assert out == [0, 2, 4, 6]
        assert time.monotonic() - start < 4.0
        assert sorted(p.name for p in (dead / "todo").iterdir()) == todo
        assert list((dead / "results").iterdir()) == []


def _die_at_once(*args) -> None:
    """A local worker body that exits before claiming anything."""
    os._exit(3)
