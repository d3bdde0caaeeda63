"""Torn-write robustness, property-tested.

A power cut or full disk can leave any on-disk record truncated at an
arbitrary byte, or garbled by a partial overwrite.  Hypothesis drives
both corruptions at arbitrary offsets into journal ``task-*.json``
records, and asserts the durable-state reader holds its contract:

* ``RunJournal.load_stage`` never raises — a damaged record is skipped
  (counted, warned) and its task simply re-runs;
* a resumed sweep over a damaged journal still produces bytes
  identical to a clean run — damage costs re-execution, never
  correctness.
"""

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.executor import make_tasks, map_tasks
from repro.engine.journal import RunJournal

COUNT = 6


def _norm(task):
    return float(task.payload) * 0.5 + 97.0


def _clean_bytes():
    tasks = make_tasks(range(COUNT), root_seed=7, name="torn")
    return json.dumps(map_tasks(_norm, tasks), sort_keys=True)


def _fresh_journal(tmp_path_factory):
    root = tmp_path_factory.mktemp("torn-runs")
    journal = RunJournal.create(root, "r", {})
    tasks = make_tasks(range(COUNT), root_seed=7, name="torn")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        map_tasks(_norm, tasks, stage="s", journal=journal)
    return root, sorted((journal.run_dir / "stages").rglob("task-*.json"))


# Damage: truncate at an offset, or splice arbitrary bytes at an offset.
_damage = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 400), st.binary(max_size=0)),
    st.tuples(st.just("garble"), st.integers(0, 400), st.binary(min_size=1, max_size=32)),
)


def _apply(path, damage):
    mode, offset, blob = damage
    data = path.read_bytes()
    offset = min(offset, len(data))
    if mode == "truncate":
        path.write_bytes(data[:offset])
    else:
        path.write_bytes(data[:offset] + blob + data[offset + len(blob):])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(victim=st.integers(0, COUNT - 1), damage=_damage)
def test_damaged_record_skipped_and_resume_byte_identical(
    tmp_path_factory, victim, damage
):
    root, records = _fresh_journal(tmp_path_factory)
    _apply(records[victim], damage)

    resumed = RunJournal.open(root, "r")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # corrupt-record warning is fine
        loaded = resumed.load_stage("s", COUNT)
    # Never raises; every surviving record is intact and correctly keyed.
    assert set(loaded) <= set(range(COUNT))

    # The resumed sweep re-runs the gaps and lands on identical bytes.
    tasks = make_tasks(range(COUNT), root_seed=7, name="torn")
    again = RunJournal.open(root, "r")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = map_tasks(_norm, tasks, stage="s", journal=again)
    assert json.dumps(out, sort_keys=True) == _clean_bytes()


def test_empty_record_file_is_just_a_gap(tmp_path_factory):
    root, records = _fresh_journal(tmp_path_factory)
    records[0].write_bytes(b"")
    resumed = RunJournal.open(root, "r")
    with pytest.warns(UserWarning, match="corrupt"):
        loaded = resumed.load_stage("s", COUNT)
    assert 0 not in loaded
    assert resumed.corrupt_records == 1
    assert resumed.health()["corrupt_records"] == 1
