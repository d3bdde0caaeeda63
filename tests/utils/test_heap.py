"""The process heap policy: freed temporaries stay mapped between calls.

On glibc, :func:`repro.utils.heap.apply_heap_policy` fixes the mmap
threshold and the top pad, so a Monte-Carlo kernel that frees its
~1.2-MB temporaries on return does not page-fault them in again on the
next call.  Elsewhere it does nothing.  The CLI applies it once, first
thing in ``main``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.utils import heap

SRC = Path(__file__).resolve().parents[2] / "src"

#: 20 Monte-Carlo calls at the paper's n = 100 in a fresh interpreter,
#: after the CLI's process setup and one call that grows the heap;
#: prints the helper's verdict and the minor page faults the 20 took.
FAULTS_PROBE = """
import resource
import numpy as np
import repro.cli
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.fading.montecarlo import estimate_expected_utility
from repro.geometry.placement import paper_random_network
from repro.utility.shannon import ShannonUtility

applied = repro.cli.apply_heap_policy()
s, r = paper_random_network(100, rng=0)
inst = SINRInstance.from_network(Network(s, r), UniformPower(2.0), 2.2, 4e-7)
profile = ShannonUtility(100, cap=1e4)
q = np.full(100, 0.3)
gen = np.random.default_rng(0)
estimate_expected_utility(inst, profile.evaluate, q, gen, num_samples=1500)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    estimate_expected_utility(inst, profile.evaluate, q, gen, num_samples=1500)
print(applied, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc-only")
def test_monte_carlo_calls_stop_faulting(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    applied, faults = proc.stdout.split()
    assert applied == "True"
    # Without the policy these calls take tens of thousands of faults.
    assert int(faults) < 1000


class _Libc:
    """Stands in for ``ctypes.CDLL(None)``: records ``mallopt`` calls."""

    def __init__(self, accepts=lambda param: True):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return int(accepts(param))

        self.mallopt = mallopt


class TestHelper:
    def test_sets_both_parameters_on_glibc(self, monkeypatch):
        libc = _Libc()
        monkeypatch.setattr(heap.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: libc)
        assert heap.apply_heap_policy() is True
        assert sorted(libc.calls) == [(-3, heap.MMAP_THRESHOLD), (-2, heap.TOP_PAD)]

    def test_reports_a_refused_parameter(self, monkeypatch):
        libc = _Libc(accepts=lambda param: param != -3)
        monkeypatch.setattr(heap.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: libc)
        assert heap.apply_heap_policy() is False

    @pytest.mark.parametrize("libc_ver", [("", ""), ("musl", "1.2"), ("libc", "")])
    def test_does_nothing_off_glibc(self, monkeypatch, libc_ver):
        libc = _Libc()
        monkeypatch.setattr(heap.platform, "libc_ver", lambda: libc_ver)
        monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: libc)
        assert heap.apply_heap_policy() is False
        assert libc.calls == []

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(heap.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: object())
        assert heap.apply_heap_policy() is False

    def test_does_nothing_when_libc_cannot_load(self, monkeypatch):
        def refuse(name):
            raise OSError("no libc")

        monkeypatch.setattr(heap.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(heap.ctypes, "CDLL", refuse)
        assert heap.apply_heap_policy() is False


def test_cli_main_applies_the_policy_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "apply_heap_policy", lambda: calls.append(1) or True)
    assert cli.main(["list"]) == 0
    assert calls == [1]
