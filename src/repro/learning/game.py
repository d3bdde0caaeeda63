"""The round-based capacity game (Section 6 / Figure 2 engine).

Every round, each link's learner picks send/idle; the engine evaluates
who would be received — for *every* link, including idle ones, since the
counterfactual "had I sent" outcome depends only on the other players'
actions — and feeds the learners their losses.  Reception is delegated
entirely to a :class:`~repro.channel.base.Channel`
(:meth:`~repro.channel.base.Channel.counterfactual`), so the game runs
under *any* interference model: the deterministic SINR test, the exact
Theorem-1 Rayleigh law, a Monte-Carlo fading family, or block fading.

The engine records everything the analysis of Section 6 refers to, so
regret (Definition 2), the Lemma-4 comparison, and the Lemma-5 invariant
can all be computed after the fact from one :class:`GameResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.channel.base import Channel
from repro.channel.spec import make_channel
from repro.core.sinr import SINRInstance
from repro.learning.regret import (
    expected_send_rewards,
    external_regret,
    lemma5_quantities,
    realized_rewards,
)
from repro.learning.rwm_bank import RWMLearnerBank
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["GameResult", "CapacityGame"]


@dataclass(frozen=True)
class GameResult:
    """Full record of a capacity-game run.

    Attributes
    ----------
    actions:
        ``(T, n)`` boolean — who transmitted.
    send_success:
        ``(T, n)`` boolean — whether a transmission by ``i`` in round
        ``t`` was / would have been received (counterfactual-complete).
    success_counts:
        ``(T,)`` — realized successful transmissions per round (the
        Figure 2 curve).
    send_probabilities:
        ``(T, n)`` — each learner's send probability entering the round
        (diagnostics; shows convergence).
    model:
        The channel's display name (``"nonfading"``, ``"rayleigh"``,
        ``"nakagami(m=2)"``, ...).
    beta:
        The SINR threshold played.
    weights:
        Per-link weights of the weighted game (``None`` for the binary
        game of Section 6).
    weighted_values:
        ``(T,)`` — realized weighted utility per round (``None`` for the
        binary game; use :attr:`success_counts` there).
    """

    actions: np.ndarray
    send_success: np.ndarray
    success_counts: np.ndarray
    send_probabilities: np.ndarray
    model: str
    beta: float
    weights: "np.ndarray | None" = None
    weighted_values: "np.ndarray | None" = None
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def num_rounds(self) -> int:
        return self.actions.shape[0]

    @property
    def n(self) -> int:
        return self.actions.shape[1]

    def realized_regret(self) -> np.ndarray:
        """External regret per player against realized rewards ``h_i``
        (``±w_i`` in the weighted game)."""
        rewards = np.where(self.send_success, 1.0, -1.0)
        if self.weights is not None:
            rewards = rewards * self.weights
        return external_regret(self.actions, rewards)

    def expected_regret(self, instance: SINRInstance) -> np.ndarray:
        """External regret per player against expected rewards ``h̄_i``
        (Rayleigh model; Lemma 4 relates this to :meth:`realized_regret`)."""
        send_rewards = expected_send_rewards(instance, self.actions, self.beta)
        return external_regret(self.actions, send_rewards)

    def lemma5(self, instance: SINRInstance) -> tuple[float, float]:
        """The pair ``(X, F)`` of Lemma 5 for this run."""
        return lemma5_quantities(instance, self.actions, self.beta)

    def average_successes(self, last: "int | None" = None) -> float:
        """Mean successful transmissions per round (optionally over the
        trailing ``last`` rounds, e.g. after convergence)."""
        counts = self.success_counts if last is None else self.success_counts[-last:]
        return float(counts.mean())


LearnerFactory = Callable[[np.random.Generator], "object"]


class CapacityGame:
    """Round-based capacity game with pluggable learners.

    Parameters
    ----------
    instance:
        Mean signals and noise.
    beta:
        Global SINR threshold (binary utilities, as in Section 6).
    channel:
        A :class:`~repro.channel.base.Channel` built on ``instance``
        (its threshold must match ``beta``), or a spec string
        (``"nonfading"``, the default, ``"rayleigh"``,
        ``"nakagami:m=2"``, ...).
    rng:
        Seed or generator; child streams are spawned per learner and for
        the channel, so runs are reproducible.
    weights:
        Optional positive per-link weights — the link-weighted utility
        family of Section 2.  Rewards become ``±w_i`` and the default
        RWM learners see losses scaled by ``w_i / max(w)`` (so a heavy
        link treats a failed attempt as proportionally more painful,
        keeping losses in ``[0, 1]``).  ``None`` is the paper's binary
        game.
    """

    def __init__(
        self,
        instance: SINRInstance,
        beta: float,
        *,
        channel: "Channel | str" = "nonfading",
        rng=None,
        weights=None,
    ):
        check_positive(beta, "beta")
        self.instance = instance
        self.beta = float(beta)
        self.channel = make_channel(channel, instance, beta)
        if self.channel.beta != self.beta:
            raise ValueError(
                f"channel threshold {self.channel.beta:g} differs from game beta {beta:g}"
            )
        self.model = self.channel.name
        self._rng = as_generator(rng)
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64).copy()
            if w.shape != (instance.n,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ValueError("weights must be a positive vector of length n")
            w.setflags(write=False)
        else:
            w = None
        self.weights = w

    def play(
        self,
        num_rounds: int,
        learners: "Sequence[object] | None" = None,
    ) -> GameResult:
        """Run the game for ``num_rounds`` rounds.

        ``learners`` defaults to one paper-configured RWM learner per
        link, each sampling from its own child stream spawned off the
        game's generator, played as one vectorized
        :class:`~repro.learning.rwm_bank.RWMLearnerBank` (see
        :meth:`~repro.learning.rwm_bank.RWMLearnerBank.from_streams`).
        The result is bit-identical to passing
        ``[RWMLearner(c) for c in rng.spawn(n)]`` drawn from the same
        generator.  Explicit learners may be a list of objects with
        ``choose() -> int`` and either ``observe_outcome(bool)`` (full
        information) or ``update(action, reward)`` (bandit;
        :class:`~repro.learning.exp3.Exp3Learner` uses it), or one
        bank-like object (anything with ``choose_all``/
        ``observe_outcomes``).

        Returns
        -------
        :class:`GameResult`
        """
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        inst = self.instance
        n = inst.n
        if learners is None:
            learners = RWMLearnerBank.from_streams(self._rng.spawn(n))
        bank = learners if hasattr(learners, "choose_all") else None
        if bank is not None:
            if getattr(bank, "n", None) != n:
                raise ValueError(f"learner bank covers {getattr(bank, 'n', '?')} players, need {n}")
            players = []
        else:
            players = list(learners)
            if len(players) != n:
                raise ValueError(f"need one learner per link ({n}), got {len(players)}")
        channel = self._rng.spawn(1)[0]

        actions = np.zeros((num_rounds, n), dtype=bool)
        send_success = np.zeros((num_rounds, n), dtype=bool)
        probs_log = np.zeros((num_rounds, n), dtype=np.float64)
        success_counts = np.zeros(num_rounds, dtype=np.int64)
        loss_scale = (
            np.ones(n) if self.weights is None else self.weights / self.weights.max()
        )

        for t in range(num_rounds):
            if bank is not None:
                probs_log[t] = bank.send_probabilities
                a = bank.choose_all()
            else:
                for i, pl in enumerate(players):
                    p = getattr(pl, "send_probability", None)
                    probs_log[t, i] = p if p is not None else np.nan
                a = np.fromiter(
                    (pl.choose() for pl in players), dtype=np.int64, count=n
                ).astype(bool)
            actions[t] = a
            # Counterfactual reception of i depends only on the others —
            # the channel answers "would i have been received" for every
            # link at once, drawing any fading from the game's stream.
            ok = self.channel.counterfactual(a, channel)
            send_success[t] = ok
            success_counts[t] = int((a & ok).sum())
            if bank is not None:
                bank.observe_outcomes(
                    ok, loss_scale if self.weights is not None else None
                )
                continue
            for i, pl in enumerate(players):
                scale = loss_scale[i]
                if hasattr(pl, "observe_outcome") and scale == 1.0:
                    pl.observe_outcome(bool(ok[i]))
                elif hasattr(pl, "observe_outcome"):
                    # Weighted losses: same table, scaled per link.
                    pl.update(0.5 * scale, 0.0 if ok[i] else scale)
                else:  # bandit learner: realized reward of the played action
                    reward = (1.0 if ok[i] else -1.0) if a[i] else 0.0
                    pl.update(int(a[i]), reward * scale)
        weighted = (
            None
            if self.weights is None
            else (actions & send_success) @ self.weights
        )
        return GameResult(
            actions=actions,
            send_success=send_success,
            success_counts=success_counts,
            send_probabilities=probs_log,
            model=self.model,
            beta=self.beta,
            weights=self.weights,
            weighted_values=weighted,
            meta={"n": n},
        )
