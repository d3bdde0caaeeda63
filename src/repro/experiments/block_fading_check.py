"""E15 — block fading: when the i.i.d.-slots assumption matters.

The paper assumes fading is redrawn independently every slot, and the
Section-4 ALOHA transformation exploits it: 4 repeats of a protocol step
help because each sees a fresh channel.  Under block fading with
coherence time ``L``, repeats that land in the same block share one
channel draw and stop helping.

This experiment measures the per-step success of the 4-repeat
transformation as ``L`` grows, against two references: the exact i.i.d.
value (``1 - (1 - Q_i)^4``, L = 1 should match it) and the fully
correlated limit (all repeats in one block — only the protocol's
transmit-pattern randomness is refreshed).

Expected shape: success decreases monotonically in ``L``; ``L = 1``
matches the exact i.i.d. value; even at large ``L`` the transformed step
keeps a useful success rate (pattern redraws still help), but the
paper's "at least as good as non-fading" guarantee visibly erodes —
quantifying exactly which assumption carries the proof.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.engine.registry import register, seed_kwargs
from repro.experiments.config import PaperParameters
from repro.experiments.runner import ExperimentResult
from repro.channel.block import BlockFadingChannel
from repro.channel.spec import make_fading_model, parse_channel_spec
from repro.geometry.placement import paper_random_network
from repro.transform.aloha_transform import transformed_step_success_probability
from repro.utils.rng import RngFactory
from repro.utils.tables import format_table

__all__ = ["run_block_fading_check"]


@register(
    "E15",
    title="Block fading: the transformation's i.i.d. assumption",
    config=lambda scale, seed: {
        "trials": 4000 if scale == "paper" else 1200,
        **seed_kwargs(seed),
    },
)
def run_block_fading_check(
    *,
    n: int = 60,
    q_level: float = 0.3,
    block_lengths: tuple[int, ...] = (1, 2, 4, 8),
    trials: int = 1500,
    repeats: int = 4,
    params: "PaperParameters | None" = None,
    seed: int = 2012,
    channel: "str | None" = None,
) -> ExperimentResult:
    """Measure the transformed step's success across coherence times.

    ``channel`` selects the fading family of the per-block draws
    (default Rayleigh) — e.g. ``--channel nakagami:m=2`` prices the
    coherence loss under Nakagami.  The exact i.i.d. reference is the
    Rayleigh closed form, so its match check only runs for Rayleigh.
    """
    pp = params if params is not None else PaperParameters.figure1()
    factory = RngFactory(seed)
    if channel is None:
        model, family_is_rayleigh = None, True
    else:
        head, p = parse_channel_spec(channel)
        if head == "block":
            head = p.pop("family", "rayleigh")
        p.pop("slots", None)
        p.pop("coherence", None)
        model = make_fading_model(head, p)
        family_is_rayleigh = head in ("rayleigh", "rayleigh-mc")
    s, r = paper_random_network(
        n, area=1000.0 * (n / 100.0) ** 0.5, rng=factory.stream("block-net")
    )
    inst = SINRInstance.from_network(
        Network(s, r), UniformPower(pp.power_scale), pp.alpha, pp.noise
    )
    q = np.full(n, q_level)
    exact_iid = float(
        transformed_step_success_probability(inst, q, pp.beta, repeats=repeats).sum()
    )

    rows = []
    means = []
    for L in block_lengths:
        ch = BlockFadingChannel(inst, pp.beta, block_length=L, model=model)
        gen = factory.stream("block-ch", L)
        # Every partial sum is an integer below 2**53, so one float sum
        # over all trials equals the per-trial running float sum.
        total = float(ch.transformed_steps(q, trials, gen, repeats=repeats).sum())
        mean = total / trials
        means.append(mean)
        rows.append([L, mean, mean / exact_iid])
    band = 5.0 * np.sqrt(exact_iid / trials)  # crude Poisson-style band
    checks = {
        "L = 1 matches the exact i.i.d. transformation": not family_is_rayleigh
        or abs(means[0] - exact_iid) <= band + 0.05 * exact_iid,
        "success non-increasing in coherence time": all(
            a >= b - 0.05 * exact_iid for a, b in zip(means, means[1:])
        ),
        # The 5% floor is calibrated to Rayleigh-depth fading; milder
        # families legitimately lose less, so they only need "no gain".
        "correlation causes a real loss (>= 5% at the longest L)": (
            means[-1] <= 0.95 * means[0]
            if family_is_rayleigh
            else means[-1] <= means[0] + band
        ),
        "pattern randomness keeps the step useful (>= 50% of i.i.d.)": means[-1]
        >= 0.5 * exact_iid,
    }
    rows.insert(0, ["(exact i.i.d.)", exact_iid, 1.0])
    text = format_table(
        ["coherence L", "E[successes]/step", "fraction of i.i.d."],
        rows,
        title=f"E15 — the 4-repeat transformation under block fading "
        f"(n={n}, q={q_level}, {trials} trials)",
        precision=3,
    )
    return ExperimentResult(
        experiment_id="E15",
        title="Block fading: the transformation's independence assumption, priced",
        text=text,
        data={"rows": rows, "exact_iid": exact_iid},
        config=f"n={n}, q={q_level}, L={block_lengths}, trials={trials}",
        checks=checks,
    )
