"""What ``import repro`` loads, and what runs without the optional libraries.

The declared dependencies are numpy and scipy, and only ``--topk`` uses
scipy (its CSR product, imported on the first top-k build).  So the CLI
and the experiment registry must import nothing beyond numpy and the
standard library, and a default run must work with neither networkx nor
scipy importable.  Each check runs in a fresh interpreter, because this
test process has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prepended to a child's code: every import of these packages fails as
#: if they were not installed.
BLOCK_OPTIONAL = """
import sys

class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("networkx", "scipy"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, _Blocked())
"""


def _python(code: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _run_cli(args: "list[str]", tmp_path: Path, *, blocked: bool) -> None:
    prefix = BLOCK_OPTIONAL if blocked else "import sys\n"
    code = prefix + f"from repro.cli import main\nsys.exit(main({args!r}))\n"
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_cli_and_registry_import_only_numpy_and_stdlib(tmp_path):
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        "from repro.engine.registry import all_specs\n"
        "all_specs()\n"
        "new = sorted({m.partition('.')[0] for m in set(sys.modules) - before})\n"
        "print(json.dumps(new))\n"
    )
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stdout.splitlines()[-1])
    allowed = set(sys.stdlib_module_names) | {
        "numpy",
        "repro",
        # Set up at run time by the stdlib and by numpy's Cython
        # extensions, not loaded from any other package.
        "__mp_main__",
        "cython_runtime",
    }
    foreign = [m for m in new if m not in allowed and not m.startswith("_cython_")]
    assert foreign == []


def test_default_runs_need_neither_networkx_nor_scipy(tmp_path):
    """E18 reads the conflict matrix for its clique bound and E20 counts
    its edges; both pass their checks and write the same bytes with the
    optional libraries blocked."""
    blocked, plain = tmp_path / "blocked", tmp_path / "plain"
    for out, is_blocked in ((blocked, True), (plain, False)):
        _run_cli(
            ["run", "E18,E20", "--scale", "quick", "--out", str(out)],
            tmp_path,
            blocked=is_blocked,
        )
    for name in ("E18.json", "E18.txt", "E20.json", "E20.txt"):
        assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name


def test_topk_runs_on_the_einsum_fallback_without_scipy(tmp_path):
    out = tmp_path / "topk"
    _run_cli(
        ["run", "E7", "--scale", "quick", "--topk", "16", "--metrics", "--out", str(out)],
        tmp_path,
        blocked=True,
    )
    assert "backend.sparse_matmuls" in (out / "metrics.json").read_text()


def test_topk_build_keeps_the_csr_fast_path_with_scipy():
    pytest.importorskip("scipy.sparse")
    from repro.backend.sparse import TopKGains

    matrix = np.random.default_rng(0).random((12, 12))
    op = TopKGains.build(matrix, 4, keep_diagonal=True, use_scipy=True)
    assert op._csr is not None
    x = np.random.default_rng(1).random((3, 12))
    np.testing.assert_allclose(op.matmul(x), op._einsum_product(x, op.values))
