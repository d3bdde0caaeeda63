"""Nash equilibria of the capacity game (the [5]-style game layer).

Section 6's no-regret sequences generalize Nash equilibria — "this
result transfers the respective game-theoretic studies" of
Andrews–Dinitz [5].  This module makes the equilibrium side concrete for
the two-action capacity game (send / idle, rewards +1 / −1 / 0):

* Under a **deterministic** channel a pure profile is a Nash
  equilibrium iff every sender would be received (deviating to idle
  would forfeit +1) and every idle player would *not* be received if it
  joined (deviating to send would earn −1).
* Under a **stochastic** channel rewards are random; the natural
  solution concept is equilibrium in *expected* reward: player ``i``
  prefers sending iff its conditional success probability exceeds 1/2
  (``E[h_i | send] = 2Q̃_i − 1 > 0``).  For Rayleigh this probability is
  the exact Theorem-1 form; Monte-Carlo channels (Nakagami, Rician)
  estimate it, making the dynamics ε-better-response in expectation.

All entry points take a ``channel`` (a spec string, default
``"nonfading"``, or a built channel); payoff evaluation is delegated
to :meth:`~repro.channel.base.Channel.counterfactual` /
:meth:`~repro.channel.base.Channel.conditional_success_probability`.

:func:`best_response_dynamics` runs asynchronous better-response updates
(round-robin over players, switch when the deviation strictly gains);
in this game a switch by one player only ever *lowers* other senders'
success, so cycling is possible in principle — the dynamics therefore
carry a step cap and report convergence honestly.  :func:`is_equilibrium`
verifies profiles, and :func:`price_of_anarchy_sample` measures the
welfare (successful-transmission count) of found equilibria against the
optimum — the quantity the Andrews–Dinitz line of work bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.capacity.optimum import local_search_capacity
from repro.channel.base import Channel
from repro.channel.spec import make_channel
from repro.core.sinr import SINRInstance
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = [
    "EquilibriumResult",
    "best_response_dynamics",
    "is_equilibrium",
    "equilibrium_welfare",
    "price_of_anarchy_sample",
]


def _send_payoff(channel: Channel, actions: np.ndarray, rng=None) -> np.ndarray:
    """Expected reward of SEND for every player, given the others' actions.

    Deterministic channels: ±1 by the reception test (the channel's
    counterfactual *is* the expectation).  Stochastic channels:
    ``2Q̃_i − 1`` with the conditional success probability — exact for
    Rayleigh, a Monte-Carlo estimate (consuming ``rng``) otherwise.
    """
    if channel.is_deterministic:
        return np.where(channel.counterfactual(actions), 1.0, -1.0)
    probs = channel.conditional_success_probability(actions.astype(np.float64), rng)
    return 2.0 * probs - 1.0


def is_equilibrium(
    instance: SINRInstance,
    actions,
    beta: float,
    *,
    channel: "Channel | str" = "nonfading",
    tolerance: float = 0.0,
    rng=None,
) -> bool:
    """Whether the pure profile ``actions`` is a Nash equilibrium.

    A player may gain at most ``tolerance`` by unilateral deviation
    (``tolerance = 0`` is exact Nash; positive values give ε-equilibria,
    the right notion for stochastic payoffs).  ``rng`` is consumed only
    when the channel estimates probabilities by Monte Carlo.
    """
    check_positive(beta, "beta")
    ch = make_channel(channel, instance, beta)
    a = np.asarray(actions, dtype=bool)
    if a.shape != (instance.n,):
        raise ValueError(f"actions must have shape ({instance.n},)")
    payoff = _send_payoff(ch, a, rng)
    # Senders earn payoff, idlers earn 0; deviation swaps the two.
    senders_fine = payoff[a] >= 0.0 - tolerance
    idlers_fine = payoff[~a] <= 0.0 + tolerance
    return bool(np.all(senders_fine) and np.all(idlers_fine))


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of best-response dynamics.

    Attributes
    ----------
    actions:
        The final pure profile.
    converged:
        ``True`` iff a full round-robin pass produced no switch (the
        profile is then an exact equilibrium of the expected game).
    steps:
        Total single-player updates performed.
    welfare:
        Expected number of successful transmissions of the profile
        (deterministic count for non-fading, Σ Q̃ over senders for
        stochastic channels).
    """

    actions: np.ndarray
    converged: bool
    steps: int
    welfare: float


def equilibrium_welfare(
    instance: SINRInstance,
    actions,
    beta: float,
    *,
    channel: "Channel | str" = "nonfading",
    rng=None,
) -> float:
    """(Expected) successful transmissions of a pure profile."""
    ch = make_channel(channel, instance, beta)
    a = np.asarray(actions, dtype=bool)
    if ch.is_deterministic:
        return float(ch.realize(a).sum())
    probs = ch.conditional_success_probability(a.astype(np.float64), rng)
    return float(probs[a].sum())


def best_response_dynamics(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    channel: "Channel | str" = "nonfading",
    initial=None,
    max_rounds: int = 200,
) -> EquilibriumResult:
    """Round-robin better-response dynamics for the capacity game.

    Parameters
    ----------
    instance, beta, channel:
        The game; ``channel`` is a spec string or a built channel.
    rng:
        Randomness for the initial profile (when ``initial`` is None),
        the player order, and any Monte-Carlo payoff estimates.
    initial:
        Starting profile (boolean mask); default random.
    max_rounds:
        Cap on full passes; the game need not be a potential game, so
        convergence is reported, not assumed.

    Returns
    -------
    :class:`EquilibriumResult`
    """
    check_positive(beta, "beta")
    ch = make_channel(channel, instance, beta)
    if max_rounds <= 0:
        raise ValueError(f"max_rounds must be positive, got {max_rounds}")
    gen = as_generator(rng)
    n = instance.n
    if initial is not None:
        a = np.asarray(initial, dtype=bool).copy()
        if a.shape != (n,):
            raise ValueError(f"initial profile must have shape ({n},)")
    else:
        a = gen.random(n) < 0.5
    steps = 0
    converged = False
    for _ in range(max_rounds):
        changed = False
        for i in gen.permutation(n):
            i = int(i)
            payoff = _send_payoff(ch, a, gen)[i]
            want_send = payoff > 0.0
            if want_send != a[i]:
                a[i] = want_send
                changed = True
                steps += 1
        if not changed:
            converged = True
            break
    return EquilibriumResult(
        actions=a,
        converged=converged,
        steps=steps,
        welfare=equilibrium_welfare(instance, a, beta, channel=ch, rng=gen),
    )


def price_of_anarchy_sample(
    instance: SINRInstance,
    beta: float,
    rng=None,
    *,
    channel: "Channel | str" = "nonfading",
    num_starts: int = 8,
    opt_restarts: int = 6,
) -> dict:
    """Welfare of sampled equilibria vs the non-fading optimum.

    Runs best-response dynamics from ``num_starts`` random profiles and
    reports the worst and best *converged* equilibrium welfare against
    the local-search optimum — an empirical price-of-anarchy /
    price-of-stability pair for this instance (the quantities the
    game-theoretic line [5], [24] bounds).

    Returns a dict with keys ``opt``, ``worst``, ``best``, ``poa``
    (opt/worst), ``pos`` (opt/best), ``num_converged``.
    """
    gen = as_generator(rng)
    ch = make_channel(channel, instance, beta)
    opt = float(
        local_search_capacity(instance, beta, gen, restarts=opt_restarts).size
    )
    welfare_values = []
    for _ in range(num_starts):
        result = best_response_dynamics(instance, beta, gen, channel=ch)
        if result.converged:
            welfare_values.append(result.welfare)
    if not welfare_values or opt == 0.0:
        return {
            "opt": opt,
            "worst": float("nan"),
            "best": float("nan"),
            "poa": float("nan"),
            "pos": float("nan"),
            "num_converged": len(welfare_values),
        }
    worst, best = min(welfare_values), max(welfare_values)
    return {
        "opt": opt,
        "worst": worst,
        "best": best,
        "poa": opt / worst if worst > 0 else float("inf"),
        "pos": opt / best if best > 0 else float("inf"),
        "num_converged": len(welfare_values),
    }
