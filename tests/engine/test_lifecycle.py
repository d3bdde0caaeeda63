"""Property tests of the shared task lifecycle.

A ``hypothesis.stateful`` machine drives :class:`TaskLifecycle` with a
fake clock through random issue / succeed / raise / lose / time-out /
withdraw / stale-report / advance-clock steps, under every ``on_error``
mode, and checks the invariants every backend relies on:

* every task settles exactly once, in task order;
* attempts never decrease and stay within ``retry.max_attempts``
  (1 under ``skip`` and ``raise``);
* a worker loss never bumps the attempt;
* quarantine happens after exactly K losses, counting prior journal
  losses (and raises instead under ``raise``);
* a report carrying a stale attempt is ignored.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.backends.lifecycle import TaskLifecycle
from repro.engine.faults import ON_ERROR_MODES, RetryPolicy, TaskFailure


class RecordingLifecycle(TaskLifecycle):
    """Records every decision instead of acting on it (a ``raise`` is
    recorded, not raised)."""

    def __init__(self, *args, **kwargs):
        self.decisions: "list[tuple[str, int, BaseException | None]]" = []
        super().__init__(*args, **kwargs)

    def _decide(self, kind, idx, error=None):
        self.decisions.append((kind, idx, error))


class LifecycleMachine(RuleBasedStateMachine):
    lc: RecordingLifecycle

    @initialize(
        indices=st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
        on_error=st.sampled_from(ON_ERROR_MODES),
        max_attempts=st.integers(1, 4),
        k=st.integers(1, 3),
        prior=st.lists(st.integers(0, 3), min_size=6, max_size=6),
    )
    def start(self, indices, on_error, max_attempts, k, prior):
        self.now = 0.0
        self.order = sorted(indices)
        self.on_error = on_error
        self.k = k
        self.prior = {i: p for i, p in zip(self.order, prior)}
        self.cap = max_attempts if on_error == "retry" else 1
        self.lc = RecordingLifecycle(
            "s",
            self.order,
            on_error=on_error,
            retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.01, max_delay=0.05),
            quarantine_after=k,
            losses=self.prior,
            clock=lambda: self.now,
        )
        self.settled: "list[tuple[int, object]]" = []
        self.seen = 0
        self.aborted = False
        self.attempts = dict(self.lc.attempt)
        self._observe()

    # -- bookkeeping -------------------------------------------------------

    def _observe(self) -> None:
        """Check every new decision, then collect newly settled outcomes."""
        for kind, idx, error in self.lc.decisions[self.seen:]:
            # Quarantine (or, under raise, its RuntimeError) comes at
            # exactly the K-th loss, or up front for a prior count >= K.
            if kind == "quarantine" or isinstance(error, RuntimeError):
                expected = self.k if self.prior[idx] < self.k else self.prior[idx]
                assert self.lc.losses[idx] == expected
            if kind == "raise":
                assert self.on_error == "raise"
                assert isinstance(error, BaseException)
                self.aborted = True
        self.seen = len(self.lc.decisions)
        for idx, outcome in self.lc.settled():
            self.settled.append((idx, outcome))
            if isinstance(outcome, TaskFailure) and outcome.kind == "quarantined":
                assert outcome.attempts >= self.lc.losses[idx]
            elif isinstance(outcome, TaskFailure):
                assert self.on_error != "raise"
                assert outcome.attempts == self.cap
            else:
                assert outcome == ("value", idx)

    def _inflight(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.lc.inflight)))

    def live(self) -> bool:
        return not self.aborted

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: self.live() and self.lc.ready())
    @rule(data=st.data())
    def issue(self, data):
        idx = data.draw(st.sampled_from(self.lc.ready()))
        assert self.lc.issue(idx) == self.lc.attempt[idx]
        self._observe()

    @precondition(lambda self: self.live() and self.lc.inflight)
    @rule(data=st.data())
    def succeed(self, data):
        idx = self._inflight(data)
        assert self.lc.succeeded(idx, self.lc.attempt[idx], ("value", idx))
        self._observe()

    @precondition(lambda self: self.live() and self.lc.inflight)
    @rule(data=st.data())
    def raise_(self, data):
        idx = self._inflight(data)
        assert self.lc.raised(idx, self.lc.attempt[idx], ValueError("boom"))
        self._observe()

    @precondition(lambda self: self.live() and self.lc.inflight)
    @rule(data=st.data())
    def time_out(self, data):
        idx = self._inflight(data)
        assert self.lc.timed_out(idx, self.lc.attempt[idx], 1.5)
        self._observe()

    @precondition(lambda self: self.live() and self.lc.inflight)
    @rule(data=st.data())
    def lose(self, data):
        idx = self._inflight(data)
        attempt, losses = self.lc.attempt[idx], self.lc.losses[idx]
        assert self.lc.lost(idx, attempt)
        assert self.lc.attempt[idx] == attempt
        assert self.lc.losses[idx] == losses + 1
        self._observe()

    @precondition(lambda self: self.live() and self.lc.inflight)
    @rule(data=st.data())
    def withdraw(self, data):
        idx = self._inflight(data)
        attempt = self.lc.attempt[idx]
        assert self.lc.withdraw(idx)
        assert self.lc.attempt[idx] == attempt and idx in self.lc.due
        self._observe()

    @precondition(lambda self: self.live())
    @rule(data=st.data(), kind=st.sampled_from(["succeeded", "raised", "timed_out", "lost"]))
    def stale_report(self, data, kind):
        # A report on a task that is not in flight, or for an attempt
        # other than its current one, changes nothing.
        idx = data.draw(st.sampled_from(self.order))
        current = self.lc.attempt[idx]
        stale = data.draw(
            st.sampled_from([a for a in range(1, current + 2) if a != current])
            if idx in self.lc.inflight
            else st.integers(1, current + 1)
        )
        before = (dict(self.lc.attempt), dict(self.lc.losses), dict(self.lc.due),
                  set(self.lc.inflight), len(self.lc.decisions))
        args = {
            "succeeded": (("value", idx),),
            "raised": (ValueError("late"),),
            "timed_out": (1.5,),
            "lost": (),
        }[kind]
        assert not getattr(self.lc, kind)(idx, stale, *args)
        after = (dict(self.lc.attempt), dict(self.lc.losses), dict(self.lc.due),
                 set(self.lc.inflight), len(self.lc.decisions))
        assert after == before
        assert not self.lc.settled()

    @rule(dt=st.floats(0.0, 0.1))
    def advance_clock(self, dt):
        self.now += dt

    @precondition(lambda self: self.live())
    @rule()
    def finish(self):
        # Liveness: whatever state the run is in, executions that succeed
        # from here on settle every remaining task.
        while not self.lc.done:
            for idx in sorted(self.lc.inflight):
                self.lc.succeeded(idx, self.lc.attempt[idx], ("value", idx))
            due = self.lc.next_due()
            if due is not None:
                self.now = max(self.now, due)
            for idx in self.lc.ready():
                self.lc.issue(idx)
            self._observe()
        assert not self.lc.due and not self.lc.inflight

    # -- invariants --------------------------------------------------------

    @invariant()
    def settles_once_in_task_order(self):
        if hasattr(self, "lc"):
            assert [i for i, _ in self.settled] == self.order[: len(self.settled)]
            assert self.lc.done == (len(self.settled) == len(self.order))

    @invariant()
    def attempts_monotone_and_bounded(self):
        if hasattr(self, "lc"):
            for idx, attempt in self.lc.attempt.items():
                assert self.attempts[idx] <= attempt <= self.cap
            self.attempts = dict(self.lc.attempt)

    @invariant()
    def no_live_task_at_k_losses(self):
        if hasattr(self, "lc") and not self.aborted:
            for idx in self.order:
                if self.lc.losses[idx] >= self.k:
                    assert idx not in self.lc.due and idx not in self.lc.inflight


LifecycleMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestLifecycle = LifecycleMachine.TestCase


def _lifecycle(on_error="retry", **kwargs) -> RecordingLifecycle:
    now = [0.0]
    lc = RecordingLifecycle(
        "s", [0, 1, 2], on_error=on_error,
        retry=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0),
        quarantine_after=2, clock=lambda: now[0], **kwargs,
    )
    lc.now = now
    return lc


class TestLifecycleExamples:
    def test_retry_waits_for_its_backoff(self):
        lc = _lifecycle()
        attempt = lc.issue(1)
        lc.raised(1, attempt, ValueError("x"))
        assert lc.attempt[1] == 2 and lc.ready() == [0, 2]
        lc.now[0] = 1.0
        assert lc.ready() == [0, 1, 2]

    def test_prior_journal_losses_quarantine_up_front(self):
        lc = _lifecycle(on_error="skip", losses={1: 2})
        assert [kind for kind, _, _ in lc.decisions] == ["quarantine"]
        assert lc.ready() == [0, 2] and not lc.settled()  # task 0 settles first
        lc.succeeded(0, lc.issue(0), "a")
        (first, a), (second, failure) = lc.settled()
        assert (first, a, second, failure.kind) == (0, "a", 1, "quarantined")

    def test_raise_mode_refuses_the_kth_loss(self):
        lc = _lifecycle(on_error="raise")
        lc.lost(0, lc.issue(0))
        lc.lost(0, lc.issue(0))
        kind, idx, error = lc.decisions[-1]
        assert (kind, idx) == ("raise", 0)
        with pytest.raises(RuntimeError, match="killed 2 worker"):
            raise error

    def test_the_default_hook_raises(self):
        now = [0.0]
        lc = TaskLifecycle(
            "s", [0], on_error="raise", retry=RetryPolicy(),
            quarantine_after=3, clock=lambda: now[0],
        )
        with pytest.raises(ValueError, match="boom"):
            lc.raised(0, lc.issue(0), ValueError("boom"))
