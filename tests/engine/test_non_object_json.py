"""Run-directory JSON that parses but is not an object.

A torn or garbled file is one kind of damage; valid JSON of the wrong
shape (``null``, a list, a number, a string) is another.  Every reader
of a runs root — ``--resume``, ``repro doctor`` and ``repro stats`` —
goes through :func:`repro.engine.journal.read_json` and treats such a
file as it treats a garbled one.
"""

import json
import warnings

import pytest

from repro.cli import main
from repro.engine.doctor import diagnose
from repro.engine.executor import make_tasks, map_tasks
from repro.engine.journal import JournalError, RunJournal, check_record, read_json

NOT_OBJECTS = ["null", "[1]", "7", '"x"']
COUNT = 4


def _half(task):
    return float(task.payload) * 0.5


def _tasks():
    return make_tasks(range(COUNT), root_seed=3, name="non-object")


def _journaled_run(root):
    """A complete journaled run of one stage, with its ``status.json``."""
    journal = RunJournal.create(root, "r", {})
    out = map_tasks(_half, _tasks(), stage="s", journal=journal)
    journal.write_status({"complete": True, "journal": journal.health()})
    return journal, out


def _records(journal):
    return sorted((journal.run_dir / "stages").rglob("task-*.json"))


@pytest.mark.parametrize("text", NOT_OBJECTS)
class TestNotAnObject:
    def test_read_json_returns_none(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert read_json(path) is None
        with pytest.raises(ValueError, match="not a JSON object"):
            check_record(read_json(path))

    def test_resume_reruns_the_task(self, tmp_path, text):
        journal, clean = _journaled_run(tmp_path)
        victim = _records(journal)[2]
        victim.write_text(text)
        resumed = RunJournal.open(tmp_path, "r")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = map_tasks(_half, _tasks(), stage="s", journal=resumed)
        assert out == clean
        assert resumed.corrupt_records == 1
        assert any("will re-run" in str(w.message) for w in caught)
        # The re-run task was journaled again, whole.
        assert check_record(read_json(victim))[0] == 2

    def test_doctor_reports_the_record(self, tmp_path, text):
        journal, _ = _journaled_run(tmp_path)
        victim = _records(journal)[0]
        victim.write_text(text)
        report = diagnose(tmp_path)
        assert [(f["kind"], f["path"]) for f in report["findings"]] == [
            ("corrupt-record", str(victim))
        ]

    def test_open_rejects_the_metadata(self, tmp_path, text):
        journal, _ = _journaled_run(tmp_path)
        (journal.run_dir / "meta.json").write_text(text)
        with pytest.raises(JournalError, match="corrupt run metadata"):
            RunJournal.open(tmp_path, "r")

    def test_crash_counts_read_as_empty(self, tmp_path, text):
        journal = RunJournal.create(tmp_path, "r", {})
        assert journal.record_crash("s", 1) == 1
        (journal.run_dir / "stages" / "s" / "crashes.json").write_text(text)
        assert journal.crash_counts("s") == {}
        assert journal.record_crash("s", 1) == 1

    def test_doctor_reports_the_status(self, tmp_path, text):
        journal, _ = _journaled_run(tmp_path)
        status = journal.run_dir / "status.json"
        status.write_text(text)
        report = diagnose(tmp_path)
        assert [(f["kind"], f["path"]) for f in report["findings"]] == [
            ("corrupt-record", str(status))
        ]

    @pytest.mark.parametrize("name", ["summary.json", "metrics.json"])
    def test_stats_exits_with_its_error(self, tmp_path, text, name):
        (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit, match=f"cannot read .*{name}"):
            main(["stats", str(tmp_path)])


@pytest.mark.parametrize(
    "block",
    [{"stages": {"s": "x"}}, {"stages": [1]}, 5],
    ids=["count-not-an-integer", "stages-not-an-object", "journal-not-an-object"],
)
def test_doctor_reports_a_malformed_stage_block(tmp_path, block):
    journal, _ = _journaled_run(tmp_path)
    status = journal.run_dir / "status.json"
    status.write_text(json.dumps({"complete": True, "journal": block}))
    report = diagnose(tmp_path)
    assert [(f["kind"], f["path"]) for f in report["findings"]] == [
        ("corrupt-record", str(status))
    ]
