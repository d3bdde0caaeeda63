"""Self-test of the end-to-end benchmark on a small workload (E13,E10 at
quick scale).  Opt-in like the rest of ``benchmarks/``::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench

SMALL = bench.Workload("selftest", ("E13", "E10"), "quick", ("--jobs", "1"), 1)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    root = tmp_path_factory.mktemp("passes")
    return {
        traced: bench.run_pass(SMALL, None, traced, root / str(traced), 120.0)
        for traced in (False, True)
    }


def test_ledger_rolls_up_to_pass_wall(passes):
    rec = passes[True]
    ledger = rec["ledger"]
    self_total = sum(entry["self_s"] for entry in ledger["layers"].values())
    accounted = self_total + ledger["root_s"] + rec["outside_main_s"]
    assert accounted == pytest.approx(rec["wall_s"], rel=0.01)
    assert self_total > 0.0 and 0.0 <= bench.traced_values(rec)["unattributed_frac"] < 1.0


def test_wrapper_catches_by_name_imports_and_methods(passes):
    script = (
        "import json, repro.latency.aloha as aloha\n"
        "original = aloha.aloha_latency\n"
        "import layertrace\n"
        "layertrace.install()\n"
        "from repro.experiments import latency_compare\n"
        "from repro.fading.success import Theorem1Kernel\n"
        "print(json.dumps([latency_compare.aloha_latency.__wrapped__ is original,\n"
        "                  hasattr(Theorem1Kernel.conditional_batch, '__wrapped__')]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=bench.HERE, env=bench._child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [True, True]
    calls = {f["name"]: f["calls"] for f in passes[True]["ledger"]["functions"]}
    assert calls["repro.fading.success.Theorem1Kernel.conditional_batch"] > 0


def test_traced_bytes_equal_untraced(passes):
    assert passes[True]["digests"] == passes[False]["digests"]
    assert all(passes[True]["digests"].values())


def test_corrupted_digest_raises_failed_frac(passes):
    rec = dict(passes[False])
    book = bench.DigestBook(None)
    book.reference = {"quick": dict(rec["digests"])}
    assert book.failures(SMALL, rec) == []
    book.reference["quick"]["E13"] = "0" * 64
    rec["failed"] = book.failures(SMALL, rec)
    assert rec["failed"] == ["E13"]
    result = bench._result({"passes": [rec]}, {})
    assert result["failed"] == 1 and not result["correct"]


def test_reported_names_match_benchmark_json(passes):
    spec = bench.load_spec()
    run = {"passes": [dict(passes[False], workload="latency_paper"),
                      dict(passes[True], workload="latency_paper")]}
    assert set(bench.per_layer(run, "latency_paper")) == {m["name"] for m in spec["per_layer"]}
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "latency_paper",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
