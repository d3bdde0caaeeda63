"""Shared fixtures: canonical instances used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.geometry.placement import paper_random_network
from repro.run_context import current_run, install_run


@pytest.fixture(autouse=True)
def _isolate_run_context():
    """The run context is process-global (it ships to workers); tests
    that install one for their whole body (a chaos plan, a guard mode)
    must not leak it into their neighbours."""
    previous = current_run()
    yield
    install_run(previous)


@pytest.fixture
def two_link_instance() -> SINRInstance:
    """Hand-checkable 2-link instance.

    Gains (S̄[j, i], sender row / receiver column)::

        [[4.0, 1.0],
         [2.0, 8.0]]

    noise ν = 0.5.  With both links transmitting:
    γ_1^nf = 4 / (2 + 0.5) = 1.6 and γ_2^nf = 8 / (1 + 0.5) = 16/3.
    """
    gains = np.array([[4.0, 1.0], [2.0, 8.0]])
    return SINRInstance(gains, noise=0.5)


@pytest.fixture
def three_link_instance() -> SINRInstance:
    """A 3-link instance with one weak link (used by feasibility tests)."""
    gains = np.array(
        [
            [10.0, 2.0, 0.5],
            [1.0, 6.0, 1.5],
            [0.2, 0.8, 2.0],
        ]
    )
    return SINRInstance(gains, noise=0.25)


@pytest.fixture
def paper_network() -> Network:
    """A 30-link Figure-1-style network (fixed seed)."""
    senders, receivers = paper_random_network(30, rng=12345)
    return Network(senders, receivers)


@pytest.fixture
def paper_instance(paper_network) -> SINRInstance:
    """Uniform-power instance on :func:`paper_network` with Figure-1 physics."""
    return SINRInstance.from_network(
        paper_network, UniformPower(2.0), alpha=2.2, noise=4e-7
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
