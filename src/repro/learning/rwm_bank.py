"""Vectorized bank of RWM learners — one array op per round, not n objects.

Figure-2-scale games run 200 learners for 100+ rounds; with scalar
:class:`~repro.learning.rwm.RWMLearner` objects that is tens of
thousands of Python-level updates per game.  The bank keeps all
learners' log-weights in one ``(n, 2)`` array and performs each round's
sampling and update as a handful of vectorized operations, with the
scalar learner's mathematics exactly (same loss table, same log-domain
update, same doubling η schedule — all learners share the clock, as
they do in the game).  Driven with identical losses, bank and scalar
weights are bit-identical.

Sampling comes in two forms:

* ``RWMLearnerBank(n, rng)`` draws every player's uniform as one
  coordinate of ``rng.random(n)`` — a single stream for the team.
* :meth:`RWMLearnerBank.from_streams` gives each player its own
  generator and draws that player's uniform from it, one per round,
  exactly as :meth:`RWMLearner.choose` does.  Uniforms are drawn
  :data:`UNIFORM_BLOCK` rounds at a time with one ``g.random(k)`` call
  per player, which NumPy fills with the same values as ``k`` scalar
  ``g.random()`` calls.  A game played by this bank is therefore
  bit-identical to one played by scalar learners on the same streams
  (the default :meth:`~repro.learning.game.CapacityGame.play`).

Both equivalences are pinned down in ``tests/learning/test_rwm_bank.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["RWMLearnerBank"]

IDLE, SEND = 0, 1

#: Rounds of uniforms a per-player-streams bank draws from each stream
#: at a time.
UNIFORM_BLOCK = 64


class RWMLearnerBank:
    """``n`` Randomized-Weighted-Majority learners, vectorized.

    Parameters
    ----------
    n:
        Number of players.
    rng:
        One generator drives all sampling (players' draws are independent
        coordinates of vectorized uniforms).  Use :meth:`from_streams`
        for one generator per player.
    eta:
        Initial learning rate (paper: ``sqrt(0.5)``).
    schedule:
        ``"doubling"`` (paper) or ``"fixed"``.

    The bank exposes the team interface consumed by
    :class:`~repro.learning.game.CapacityGame`: :meth:`choose_all` and
    :meth:`observe_outcomes`.
    """

    def __init__(
        self,
        n: int,
        rng=None,
        *,
        eta: float = math.sqrt(0.5),
        schedule: str = "doubling",
    ):
        self._init_learners(n, eta, schedule)
        self._rng = as_generator(rng)
        self._streams: "list[np.random.Generator] | None" = None

    @classmethod
    def from_streams(cls, generators) -> "RWMLearnerBank":
        """One paper-configured learner per generator, each sampling from
        its own stream.

        Player ``i`` draws one uniform per round from ``generators[i]``,
        as ``RWMLearner(generators[i]).choose()`` would; the bank owns
        the streams from then on.
        """
        streams = [as_generator(g) for g in generators]
        bank = cls.__new__(cls)
        bank._init_learners(len(streams), math.sqrt(0.5), "doubling")
        bank._rng, bank._streams = None, streams
        bank._uniforms, bank._row = np.empty((0, bank.n)), 0
        return bank

    def _init_learners(self, n: int, eta: float, schedule: str) -> None:
        if n <= 0:
            raise ValueError(f"need at least one player, got n={n}")
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {eta}")
        if schedule not in ("doubling", "fixed"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.n = int(n)
        self.eta = float(eta)
        self.schedule = schedule
        self._log_w = np.zeros((self.n, 2), dtype=np.float64)
        self._probs: "np.ndarray | None" = None
        self.t = 0
        self._next_power = 2

    @property
    def send_probabilities(self) -> np.ndarray:
        """Per-player probability of playing SEND next round (read-only;
        computed once per update)."""
        if self._probs is None:
            shifted = self._log_w - self._log_w.max(axis=1, keepdims=True)
            w = np.exp(shifted)
            self._probs = w[:, SEND] / w.sum(axis=1)
            self._probs.setflags(write=False)
        return self._probs

    def _next_uniforms(self) -> np.ndarray:
        if self._streams is None:
            return self._rng.random(self.n)
        if self._row == self._uniforms.shape[0]:
            self._uniforms = np.stack(
                [g.random(UNIFORM_BLOCK) for g in self._streams], axis=1
            )
            self._row = 0
        self._row += 1
        return self._uniforms[self._row - 1]

    def choose_all(self) -> np.ndarray:
        """Sample every player's action; ``True`` = SEND."""
        return self._next_uniforms() < self.send_probabilities

    def update_all(self, loss_idle: np.ndarray, loss_send: np.ndarray) -> None:
        """Vectorized weight update with per-player losses in ``[0, 1]``
        (NaN is rejected, as by :meth:`RWMLearner.update`)."""
        li = np.asarray(loss_idle, dtype=np.float64)
        ls = np.asarray(loss_send, dtype=np.float64)
        if li.shape != (self.n,) or ls.shape != (self.n,):
            raise ValueError(f"losses must have shape ({self.n},)")
        for name, loss in (("loss_idle", li), ("loss_send", ls)):
            if not np.all((loss >= 0.0) & (loss <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1]")
        log_decay = math.log1p(-self.eta)
        self._log_w[:, IDLE] += li * log_decay
        self._log_w[:, SEND] += ls * log_decay
        self._log_w -= self._log_w.max(axis=1, keepdims=True)
        self._probs = None
        self.t += 1
        if self.schedule == "doubling" and self.t > self._next_power:
            self.eta *= math.sqrt(0.5)
            self._next_power *= 2

    def observe_outcomes(self, send_would_succeed: np.ndarray, loss_scale=None) -> None:
        """The paper's loss table, vectorized: idle costs 0.5, a failed
        transmission costs 1, a received one 0 — optionally scaled
        per player (the weighted game)."""
        ok = np.asarray(send_would_succeed, dtype=bool)
        if ok.shape != (self.n,):
            raise ValueError(f"outcomes must have shape ({self.n},)")
        scale = (
            np.ones(self.n)
            if loss_scale is None
            else np.asarray(loss_scale, dtype=np.float64)
        )
        self.update_all(0.5 * scale, np.where(ok, 0.0, 1.0) * scale)

    def __repr__(self) -> str:
        return f"RWMLearnerBank(n={self.n}, t={self.t}, eta={self.eta:.4f})"
