"""``repro doctor`` — offline audit and repair of a runs root.

Each test stages one species of post-incident debris (torn record,
foreign-config record, a killed dispatcher's queue, never-finished run)
and asserts that :func:`repro.engine.doctor.diagnose` reports it, that
``--repair`` puts it right, and that the repaired state is one the
normal readers (``load_stage``) accept.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.engine.doctor import diagnose
from repro.engine.journal import RunJournal


def _make_run(root, run_id="run-a", stage="s1", count=3):
    """A healthy, complete run: journaled results plus status.json."""
    journal = RunJournal.create(root, run_id, {"seed": 1})
    for i in range(count):
        journal.record(stage, i, i * 10)
    journal.load_stage(stage, count)  # registers the stage's task count
    journal.write_status(
        {"complete": True, "experiments": [], "journal": journal.health()}
    )
    return journal


def _record_files(journal, stage="s1"):
    return sorted((journal.run_dir / "stages").rglob("task-*.json"))


def _kinds(report):
    return sorted(f["kind"] for f in report["findings"])


class TestRunAudit:
    def test_clean_root_is_clean(self, tmp_path):
        _make_run(tmp_path)
        report = diagnose(tmp_path)
        assert report["runs"] == 1
        assert report["findings"] == []
        assert report["repairs"] == 0 and report["unrepaired"] == 0

    def test_corrupt_record_found_then_quarantined(self, tmp_path):
        journal = _make_run(tmp_path)
        victim = _record_files(journal)[1]
        victim.write_bytes(victim.read_bytes()[: len(victim.read_bytes()) // 2])

        report = diagnose(tmp_path)
        assert _kinds(report) == ["corrupt-record"]
        assert report["unrepaired"] == 1

        repaired = diagnose(tmp_path, repair=True)
        assert repaired["repairs"] == 1
        assert not victim.exists()
        moved = journal.run_dir / "corrupt" / victim.relative_to(journal.run_dir)
        assert moved.is_file()  # evidence preserved for forensics
        # The journal reader now sees a simple gap — task 1 just re-runs.
        resumed = RunJournal.open(tmp_path, "run-a")
        assert resumed.load_stage("s1", 3) == {0: 0, 2: 20}
        assert diagnose(tmp_path)["findings"] == []

    def test_index_out_of_range_record(self, tmp_path):
        journal = _make_run(tmp_path, count=3)
        journal.record("s1", 7, 70)  # valid bytes, impossible index

        report = diagnose(tmp_path)
        assert _kinds(report) == ["index-out-of-range"]
        diagnose(tmp_path, repair=True)
        assert diagnose(tmp_path)["findings"] == []
        assert RunJournal.open(tmp_path, "run-a").load_stage("s1", 3) == {
            0: 0, 1: 10, 2: 20,
        }

    def test_incomplete_runs_reported_not_repaired(self, tmp_path):
        RunJournal.create(tmp_path, "never-finished", {})  # no status.json
        journal = RunJournal.create(tmp_path, "halted", {})
        journal.write_status({"complete": False, "journal": journal.health()})

        report = diagnose(tmp_path, repair=True)
        assert _kinds(report) == ["incomplete-run", "incomplete-run"]
        assert report["repairs"] == 0 and report["unrepaired"] == 2
        assert all("--resume" in f["detail"] for f in report["findings"])


def _dead_pid() -> int:
    """The pid of a process that has exited and been reaped."""
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


class TestQueueAudit:
    def _make_queue(self, root, name, dispatcher=None):
        qdir = root / "queues" / name
        for sub in ("todo", "claimed", "results"):
            (qdir / sub).mkdir(parents=True)
        (qdir / "todo" / "task-000004-a1.pkl").write_bytes(b"unit")
        if dispatcher is not None:
            manifest = {"status": "open", "dispatcher": dispatcher}
            (qdir / "manifest.json").write_text(json.dumps(manifest))
        return qdir

    def test_dead_queue_found_then_removed(self, tmp_path):
        dead = self._make_queue(tmp_path, "q-dead", dispatcher=_dead_pid())
        live = self._make_queue(tmp_path, "q-live", dispatcher=os.getpid())

        report = diagnose(tmp_path)
        assert _kinds(report) == ["dead-queue"]
        assert report["findings"][0]["path"] == str(dead)
        assert report["queues"] == 2
        repaired = diagnose(tmp_path, repair=True)
        assert repaired["repairs"] == 1 and repaired["unrepaired"] == 0
        assert not dead.exists()
        assert live.is_dir()  # a live dispatcher's queue is left alone

    def test_queue_without_a_manifest_is_judged_by_its_id(self, tmp_path):
        torn = self._make_queue(tmp_path, "q-torn")
        dead = self._make_queue(tmp_path, f"{_dead_pid()}-0a1b2c3d-001-sweep")
        publishing = self._make_queue(tmp_path, f"{os.getpid()}-0a1b2c3d-001-sweep")
        report = diagnose(tmp_path, repair=True)
        assert _kinds(report) == ["dead-queue", "dead-queue"]
        assert not torn.exists() and not dead.exists()
        assert publishing.is_dir()  # a live dispatcher may not have written it yet

    def test_a_killed_dispatchers_queue_is_dead(self, tmp_path, capsys):
        root = tmp_path / "runs"
        script = (
            "import sys\n"
            "from repro.engine.backends import DispatchBackend\n"
            "from repro.engine.backends.dispatch import sleep_echo_task\n"
            "from repro.engine.executor import make_tasks, map_tasks\n"
            "backend = DispatchBackend(sys.argv[1], local_workers=1, poll=0.02)\n"
            "map_tasks(sleep_echo_task, make_tasks([{'sleep': 1.0}] * 4),\n"
            "          executor=backend)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(root)], env=env, start_new_session=True
        )
        try:
            deadline = time.monotonic() + 30.0
            while not list(root.glob("queues/*/manifest.json")):
                assert time.monotonic() < deadline, "no queue was published"
                time.sleep(0.02)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert main(["doctor", str(root)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert _kinds(report) == ["dead-queue"]
        assert f"pid {proc.pid}" in report["findings"][0]["detail"]
        assert main(["doctor", str(root), "--repair"]) == 0
        capsys.readouterr()
        assert list((root / "queues").iterdir()) == []


class TestDoctorCLI:
    def test_exit_codes_and_json_report(self, tmp_path, capsys):
        journal = _make_run(tmp_path)
        assert main(["doctor", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runs"] == 1 and report["findings"] == []

        victim = _record_files(journal)[0]
        victim.write_text("not json at all")
        assert main(["doctor", str(tmp_path)]) == 1  # unrepaired findings
        capsys.readouterr()
        assert main(["doctor", str(tmp_path), "--repair"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["repairs"] == 1

    def test_missing_root_is_empty_report(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path / "nothing-here")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runs"] == 0 and report["queues"] == 0


class TestIterJsonl:
    #: Address-space cap of the reading process: room for the imports,
    #: and a few hundred MB short of what reading /dev/zero would take.
    LIMIT = 768 * 2**20

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_symlink_to_a_device_reads_as_no_records(self, tmp_path):
        # repro top/tail read event files and repro doctor reads journal
        # records with iter_jsonl; a file replaced by a link to a device
        # that never ends must read as empty, not until memory runs out.
        link = tmp_path / "worker-1.jsonl"
        link.symlink_to("/dev/zero")
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({self.LIMIT}, {self.LIMIT}))\n"
            "from repro.engine.doctor import iter_jsonl\n"
            "print(iter_jsonl(sys.argv[1]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(link)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"
