"""``repro top`` / ``repro tail`` tests over synthetic event files."""

import json
import os
import subprocess
import sys

from repro.engine.doctor import diagnose
from repro.obs.live import (
    collect_state,
    render_event_line,
    render_top,
    tail,
    top,
)

T0 = 1_700_000_000.0


def _write_events(root, name, events):
    events_dir = root / "events"
    events_dir.mkdir(exist_ok=True)
    with open(events_dir / f"{name}.jsonl", "w") as fh:
        for i, doc in enumerate(events, start=1):
            fh.write(json.dumps({"src": name, "seq": i, **doc}) + "\n")


def _dead_pid() -> int:
    """The pid of a process that has exited and been reaped."""
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


def _queue(root, name, manifest):
    qdir = root / "queues" / name
    for sub in ("todo", "claimed", "results"):
        (qdir / sub).mkdir(parents=True)
    (qdir / "todo" / "task-000001.pkl").write_bytes(b"x")
    (qdir / "manifest.json").write_text(json.dumps(manifest))
    return qdir


def _fleet(root):
    """A small synthetic campaign: one stage, two workers, one loss."""
    _write_events(root, "run-h-1", [
        {"ts": T0, "kind": "stage-start", "stage": "sweep", "experiment": "E1",
         "tasks": 4, "pending": 4, "replayed": 0, "backend": "dispatch"},
        {"ts": T0 + 1, "kind": "task-done", "stage": "sweep",
         "experiment": "E1", "index": 0},
        {"ts": T0 + 2, "kind": "task-done", "stage": "sweep",
         "experiment": "E1", "index": 1},
        {"ts": T0 + 2.5, "kind": "reissue", "stage": "sweep", "index": 2,
         "attempt": 2},
    ])
    _write_events(root, "worker-a", [
        {"ts": T0 + 0.5, "kind": "worker-start", "worker": "a"},
        {"ts": T0 + 1.5, "kind": "heartbeat", "role": "worker", "host": "h",
         "pid": 7, "tasks": 2, "tps": 1.5, "rss": 1 << 20},
    ])


class TestCollectState:
    def test_folds_stages_workers_counts_incidents(self, tmp_path):
        _fleet(tmp_path)
        state = collect_state(tmp_path, now=T0 + 3)
        assert state["events"] == 6
        assert state["sources"] == 2
        stage = state["stages"]["E1/sweep"]
        assert stage["total"] == 4
        assert stage["done"] == 2
        assert stage["finished"] is None
        worker = state["workers"]["worker-a"]
        assert worker["tasks"] == 2
        assert worker["last_ts"] == T0 + 1.5
        assert state["counts"]["task-done"] == 2
        assert [e["kind"] for e in state["incidents"]] == ["reissue"]

    def test_torn_tail_line_is_skipped(self, tmp_path):
        _fleet(tmp_path)
        with open(tmp_path / "events" / "run-h-1.jsonl", "a") as fh:
            fh.write('{"ts": 1, "kind": "task-done", "trunc')  # mid-append
        state = collect_state(tmp_path, now=T0 + 3)
        assert state["events"] == 6  # the torn line never counts

    def test_queue_directories_are_scanned(self, tmp_path):
        _fleet(tmp_path)
        _queue(tmp_path, "q-001-sweep", {
            "stage": "sweep", "status": "open", "tasks": 4, "dispatcher": os.getpid(),
        })
        state = collect_state(tmp_path, now=T0 + 3)
        assert state["queues"] == [{
            "queue": "q-001-sweep", "stage": "sweep", "status": "open",
            "tasks": 4, "todo": 1, "claimed": 0, "results": 0,
        }]

    def test_a_killed_dispatchers_queue_is_dead(self, tmp_path):
        # The doctor's rule: an open queue whose dispatcher is gone, or an
        # unpublished one whose id leads with a dead pid, is dead.
        _fleet(tmp_path)
        dead = _dead_pid()
        _queue(tmp_path, "q-002-sweep", {
            "stage": "sweep", "status": "open", "tasks": 4, "dispatcher": dead,
        })
        _queue(tmp_path, f"{dead}-0a1b-003-sweep", {})
        _queue(tmp_path, "q-004-sweep", {
            "stage": "sweep", "status": "open", "tasks": 4, "dispatcher": os.getpid(),
        })
        state = collect_state(tmp_path, now=T0 + 3)
        status = {q["queue"]: q["status"] for q in state["queues"]}
        assert status == {
            "q-002-sweep": "dead", f"{dead}-0a1b-003-sweep": "dead", "q-004-sweep": "open",
        }
        doomed = {f["path"] for f in diagnose(tmp_path)["findings"]}
        assert doomed == {
            str(tmp_path / "queues" / q) for q, s in status.items() if s == "dead"
        }
        frame = render_top(state)
        assert "queues: 1 open, 2 dead" in frame
        assert "DEAD" in frame and "repro doctor" in frame and "--repair" in frame


class TestRenderTop:
    def test_frame_contains_progress_workers_and_incidents(self, tmp_path):
        _fleet(tmp_path)
        state = collect_state(tmp_path, now=T0 + 3)
        frame = render_top(state)
        assert "E1/sweep" in frame
        assert "2/4" in frame and "50%" in frame
        assert "worker-a" in frame and "1MB" in frame
        assert "incidents:" in frame and "reissue" in frame

    def test_stale_worker_is_flagged(self, tmp_path):
        _fleet(tmp_path)
        state = collect_state(tmp_path, now=T0 + 300)
        frame = render_top(state, stale_after=10.0)
        assert "STALE" in frame

    def test_counter_delta_between_frames(self, tmp_path):
        _fleet(tmp_path)
        state = collect_state(tmp_path, now=T0 + 3)
        frame = render_top(state, prev_counts={"task-done": 1})
        assert "since last frame" in frame

    def test_empty_root_renders_hint(self, tmp_path):
        frame = render_top(collect_state(tmp_path, now=T0))
        assert "none yet" in frame


class TestCommands:
    def test_top_once_prints_one_frame(self, tmp_path, capsys):
        _fleet(tmp_path)
        assert top(tmp_path, once=True) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "E1/sweep" in out

    def test_top_missing_root_fails(self, tmp_path, capsys):
        assert top(tmp_path / "nope", once=True) == 1
        assert "no runs root" in capsys.readouterr().err

    def test_tail_prints_merged_stream_in_order(self, tmp_path, capsys):
        _fleet(tmp_path)
        assert tail(tmp_path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        # Merged across source files by wall clock, not per-file.
        kinds = [line.split()[2] for line in lines]
        assert kinds[0] == "stage-start"
        assert kinds[1] == "worker-start"
        assert kinds[-1] == "reissue"

    def test_render_event_line_hides_bookkeeping_fields(self):
        line = render_event_line({
            "ts": T0, "seq": 9, "src": "worker-a", "kind": "task-done",
            "host": "h", "pid": 1, "stage": "sweep", "index": 5,
        })
        assert "stage=sweep" in line and "index=5" in line
        assert "seq=" not in line and "pid=" not in line
