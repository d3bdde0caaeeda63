"""Shared fixtures: every test leaves the ambient telemetry state clean."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    bus = obs.install(None).events
    if bus is not None:
        bus.close()
