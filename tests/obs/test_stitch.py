"""Distributed-trace stitching: every worker's task spans land in one
coherent run trace, on the pool and on the dispatch backend alike."""

import json
import time

import pytest

from repro import obs
from repro.engine.backends import DispatchBackend
from repro.engine.executor import Task, make_tasks, map_tasks
from repro.obs import Telemetry
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceWriter, emit_subtree, span
from repro.run_context import run_scope

N_TASKS = 8


def _traced_task(task: Task) -> int:
    # A nested span inside the task function — stitched traces must
    # keep it parented under its task span across the process boundary.
    with obs_trace.span("inner-kernel", kind="stage"):
        return task.payload * 2


def _sleepy_task(task: Task) -> int:
    time.sleep(task.payload)
    return task.index


def _read(path) -> list:
    return [
        json.loads(line) for line in path.read_text().splitlines() if line.strip()
    ]


def _run_traced(tmp_path, n_tasks=N_TASKS, **kwargs) -> list:
    tracer = TraceWriter(tmp_path / "trace.jsonl")
    obs.install(Telemetry(tracer=tracer))
    try:
        with span("sweep", kind="stage"):
            out = map_tasks(_traced_task, make_tasks(range(n_tasks)),
                            stage="sweep", **kwargs)
    finally:
        obs.install(None)
        tracer.close()
    assert out == [i * 2 for i in range(n_tasks)]
    return _read(tmp_path / "trace.jsonl")


def _check_stitched(spans, *, expect_workers: bool, n_tasks=N_TASKS) -> None:
    stage = [s for s in spans if s["kind"] == "stage" and s["name"] == "sweep"]
    assert len(stage) == 1
    tasks = [s for s in spans if s["kind"] == "task"]
    # One span per task, every index present, all under the stage span.
    assert sorted(t["meta"]["index"] for t in tasks) == list(range(n_tasks))
    assert all(t["parent"] == stage[0]["id"] for t in tasks)
    inner = [s for s in spans if s["name"] == "inner-kernel"]
    assert len(inner) == n_tasks
    task_ids = {t["id"] for t in tasks}
    assert all(s["parent"] in task_ids for s in inner)
    # Remapped ids stay unique across the whole stitched document.
    ids = [s["id"] for s in spans]
    assert len(ids) == len(set(ids))
    if expect_workers:
        workers = {t["meta"].get("worker") for t in tasks}
        assert workers and None not in workers


class TestSerialBaseline:
    def test_serial_trace_is_complete(self, tmp_path):
        spans = _run_traced(tmp_path, jobs=1, executor="serial")
        _check_stitched(spans, expect_workers=False)


class TestPoolStitching:
    def test_pool_workers_task_spans_are_stitched(self, tmp_path):
        spans = _run_traced(tmp_path, jobs=2, executor="pool")
        _check_stitched(spans, expect_workers=False)


class TestMeasuredTimes:
    def test_pool_task_spans_end_in_the_order_they_ran(self, tmp_path):
        # Task 0 holds one worker while tasks 1-3 run one after another
        # on the other.  They settle after task 0 (in task order), but
        # their spans keep the times the worker measured.
        tracer = TraceWriter(tmp_path / "trace.jsonl")
        obs.install(Telemetry(tracer=tracer))
        try:
            with span("sweep", kind="stage"):
                map_tasks(_sleepy_task, make_tasks([0.6, 0.05, 0.05, 0.05]),
                          jobs=2, executor="pool", stage="sweep")
        finally:
            obs.install(None)
            tracer.close()
        tasks = [s for s in _read(tmp_path / "trace.jsonl") if s["kind"] == "task"]
        end = {t["meta"]["index"]: t["t0"] + t["dur"] for t in tasks}
        assert end[1] < end[2] < end[3] < end[0]
        by_worker: "dict[str, list]" = {}
        for t in tasks:
            by_worker.setdefault(t["meta"]["worker"], []).append((t["t0"], t["t0"] + t["dur"]))
        for spans in by_worker.values():
            spans.sort()
            assert all(b0 >= a1 - 1e-6 for (_, a1), (b0, _) in zip(spans, spans[1:]))


class TestDispatchStitching:
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_every_workers_spans_land_in_one_trace(self, tmp_path, chunk):
        # On 2 workers, 8 * chunk tasks make units of ``chunk`` tasks.
        backend = DispatchBackend(tmp_path / "root", local_workers=2, poll=0.01)
        assert backend._chunk(8 * chunk) == chunk
        try:
            spans = _run_traced(tmp_path, 8 * chunk, executor=backend)
        finally:
            backend.close()
        _check_stitched(spans, expect_workers=True, n_tasks=8 * chunk)
        tasks = [s for s in spans if s["kind"] == "task"]
        assert all(s["meta"]["stage"] == "sweep" for s in tasks)


class TestEmitSubtree:
    def test_noop_without_tracer(self):
        emit_subtree([{"name": "x", "kind": "task", "id": 1, "parent": None,
                       "rel": 0.0, "dur": 0.1, "meta": {}}], 0.0)  # must not raise

    def test_collector_buffer_grafts_under_current_span(self, tmp_path):
        with run_scope(spans=True), obs.capture() as captured:
            with span("task-0", kind="task", index=0):
                with span("deep", kind="stage"):
                    pass
        assert [r["name"] for r in captured.spans] == ["deep", "task-0"]

        tracer = TraceWriter(tmp_path / "trace.jsonl")
        obs.install(Telemetry(tracer=tracer))
        try:
            with span("stage-x", kind="stage"):
                emit_subtree(captured.spans, captured.epoch)
        finally:
            obs.install(None)
            tracer.close()
        spans = {s["name"]: s for s in _read(tmp_path / "trace.jsonl")}
        assert spans["task-0"]["parent"] == spans["stage-x"]["id"]
        assert spans["deep"]["parent"] == spans["task-0"]["id"]
        assert spans["deep"]["dur"] <= spans["task-0"]["dur"] + 1e-9
