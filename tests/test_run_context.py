"""The run context: one frozen record of a run's settings.

It must survive both of the ways it leaves a process unchanged — pickled
to a worker (pool initializer, dispatch ``bundle.pkl``) and written as
plain data (``summary.json``, a journal's ``meta.json``) — and its scope
must restore what it replaced.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backend import BackendConfig
from repro.engine.chaos import FAULT_KINDS, FAULT_SITES, ChaosPlan, Fault, RandomSchedule
from repro.run_context import GUARD_MODES, RunContext, current_run, run_scope

_names = st.text(min_size=1, max_size=12)
_faults = st.builds(
    Fault,
    kind=st.sampled_from(FAULT_KINDS),
    stage=st.none() | _names,
    index=st.none() | st.integers(0, 10_000),
    site=st.sampled_from(FAULT_SITES),
    links=st.lists(st.integers(0, 500), max_size=4).map(tuple),
    once=st.booleans(),
    hang_seconds=st.floats(0.0, 1e4, allow_nan=False),
)
_probability = st.floats(0.0, 0.25, allow_nan=False)
_schedules = st.builds(
    RandomSchedule,
    seed=st.integers(0, 2**32),
    p_raise=_probability,
    p_hang=_probability,
    p_enospc=_probability,
    stage=st.none() | _names,
)
_plans = st.builds(
    ChaosPlan,
    state_dir=_names,
    faults=st.lists(_faults, max_size=3).map(tuple),
    schedule=st.none() | _schedules,
)
_contexts = st.builds(
    RunContext,
    experiment_ids=st.lists(st.sampled_from([f"E{k}" for k in range(1, 23)])).map(tuple),
    scale=st.sampled_from([None, "quick", "paper"]),
    seed=st.none() | st.integers(-(2**40), 2**40),
    channel=st.none() | st.sampled_from(["rayleigh", "nakagami:m=2", "block:coherence=4"]),
    backend=st.builds(
        BackendConfig,
        dtype=st.sampled_from(["float64", "float32"]),
        topk=st.none() | st.integers(1, 64),
    ),
    guards=st.sampled_from(GUARD_MODES),
    chaos=st.none() | _plans,
    metrics=st.booleans(),
    spans=st.booleans(),
    events=st.none() | _names,
)


@given(_contexts)
def test_round_trips_through_pickle(run):
    assert pickle.loads(pickle.dumps(run)) == run


@given(_contexts)
def test_round_trips_through_its_dict_form(run):
    doc = json.loads(json.dumps(run.to_dict()))
    assert doc == run.to_dict()
    assert RunContext.from_dict(doc) == run


def test_scope_applies_changes_and_restores():
    before = current_run()
    with run_scope(guards="strict", backend=BackendConfig(topk=4)) as run:
        assert current_run() is run
        assert (run.guards, run.backend.topk) == ("strict", 4)
        assert run.chaos is before.chaos
    assert current_run() is before


def test_invalid_guard_mode_rejected():
    with pytest.raises(ValueError, match="guard mode"):
        RunContext(guards="loud")
