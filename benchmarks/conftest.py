"""Benchmark harness configuration.

``bench_experiments.py`` runs every registered experiment once (timed by
pytest-benchmark), writes its rendered table to
``benchmarks/results/<scale>/<id>.txt`` — the bytes ``python -m repro
run <id> --scale <scale> --out benchmarks/results/<scale>`` writes —
prints it (visible with ``-s`` or in the captured output), and asserts
the experiment's shape checks, so a benchmark run is also a
reproduction verdict.

Scale control: the registry's ``quick`` scale by default (the whole
suite finishes in about ten seconds); ``REPRO_PAPER_SCALE=1`` selects
its ``paper`` scale, the verbatim Section-7 parameters.  Results are
written per scale, so a quick run never clobbers the archived
paper-scale tables.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_ROOT = Path(__file__).parent / "results"


def paper_scale() -> bool:
    """Whether to run the registry's paper-scale configurations."""
    return os.environ.get("REPRO_PAPER_SCALE", "0") == "1"


@pytest.fixture(scope="session")
def scale() -> str:
    """The registry scale of this session: ``paper`` or ``quick``."""
    return "paper" if paper_scale() else "quick"


@pytest.fixture
def record_result(scale):
    """Write an ExperimentResult to disk, echo it, and assert its checks."""
    out = RESULTS_ROOT / scale
    out.mkdir(parents=True, exist_ok=True)

    def _record(result):
        path = out / f"{result.experiment_id}.txt"
        rendered = result.render()
        path.write_text(rendered + "\n", encoding="utf-8")
        print("\n" + rendered)
        assert result.all_checks_pass, {
            k: v for k, v in result.checks.items() if not v
        }
        return result

    return _record
