"""``repro doctor`` — offline audit and repair of a runs root.

Each test stages one species of post-incident debris (torn record,
foreign-config record, dead lease, orphaned claim, never-finished run)
and asserts that :func:`repro.engine.doctor.diagnose` reports it, that
``--repair`` puts it right, and that the repaired state is one the
normal readers (``load_stage``, the dispatch claim loop) accept.
"""

import json
import os
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


class TestQueueAudit:
    def _make_queue(self, root, name="q1"):
        qdir = root / "queues" / name
        for sub in ("todo", "claimed", "leases"):
            (qdir / sub).mkdir(parents=True)
        return qdir

    def test_stale_lease_released(self, tmp_path):
        qdir = self._make_queue(tmp_path)
        lease = qdir / "leases" / "lease-000002.json"
        lease.write_text(json.dumps({"index": 2, "worker": "w0"}))
        old = time.time() - 3600
        os.utime(lease, (old, old))
        fresh = qdir / "leases" / "lease-000005.json"
        fresh.write_text(json.dumps({"index": 5, "worker": "w1"}))

        report = diagnose(tmp_path, stale_after=60.0)
        assert _kinds(report) == ["stale-lease"]
        diagnose(tmp_path, repair=True, stale_after=60.0)
        assert not lease.exists()
        assert fresh.exists()  # the live worker keeps its lease

    def test_orphaned_claim_returned_to_todo(self, tmp_path):
        qdir = self._make_queue(tmp_path)
        claim = qdir / "claimed" / "task-000004-a1.pkl"
        claim.write_bytes(b"payload")  # claimed, but no lease at all

        report = diagnose(tmp_path)
        assert _kinds(report) == ["orphaned-claim"]
        repaired = diagnose(tmp_path, repair=True)
        assert repaired["repairs"] == 1
        assert not claim.exists()
        assert (qdir / "todo" / "task-000004-a1.pkl").read_bytes() == b"payload"

    def test_stale_lease_plus_claim_both_repaired(self, tmp_path):
        qdir = self._make_queue(tmp_path)
        claim = qdir / "claimed" / "task-000001-a2.pkl"
        claim.write_bytes(b"unit")
        lease = qdir / "leases" / "lease-000001.json"
        lease.write_text(json.dumps({"index": 1, "worker": "w9"}))
        old = time.time() - 3600
        os.utime(lease, (old, old))

        report = diagnose(tmp_path, repair=True)
        assert _kinds(report) == ["orphaned-claim", "stale-lease"]
        assert report["repairs"] == 2
        assert not lease.exists() and not claim.exists()
        assert (qdir / "todo" / "task-000001-a2.pkl").is_file()


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
