"""Shared fixtures: every test leaves the ambient telemetry state clean."""

import pytest

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    obs_metrics.install(None)
    obs_trace.install_tracer(None)
    obs_profile.install_profile_dir(None)
    bus = obs_events.install(None)
    if bus is not None:
        bus.close()
