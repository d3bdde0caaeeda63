"""E8 — latency schedulers, non-fading vs a fading channel.

Supports the Section-4 transfer claims for latency minimization:
repeated single-slot maximization and ALOHA-style contention resolution
are run in both models (the faded runs using the stochastic service /
4-repeat transformation), and the measured faded latencies should
exceed the non-fading ones by only a small constant factor.  The faded
side defaults to exact Rayleigh; ``--channel nakagami:m=2`` (or any
other spec) runs the same schedulers under that family end to end.
"""

from __future__ import annotations

import numpy as np

from repro.channel.spec import make_channel
from repro.engine.registry import register, scaled_config
from repro.experiments.config import Figure1Config
from repro.experiments.runner import ExperimentResult
from repro.experiments.workloads import figure1_networks, instance_pair
from repro.latency.aloha import aloha_latency
from repro.latency.decay import decay_latency
from repro.latency.repeated_max import repeated_max_latency
from repro.utils.rng import RngFactory
from repro.utils.stats import summarize
from repro.utils.tables import format_table

__all__ = ["run_latency_compare"]


@register(
    "E8",
    title="Latency schedulers, both models",
    config=lambda scale, seed: {"config": scaled_config(Figure1Config, scale, seed)},
)
def run_latency_compare(
    config: "Figure1Config | None" = None,
    *,
    rayleigh_trials: int = 5,
    channel: "str | None" = None,
) -> ExperimentResult:
    """Measure latencies of both schedulers in both models.

    ``channel`` swaps the faded side (default ``"rayleigh"``) for any
    channel spec; ``rayleigh_trials`` then counts trials of that family.
    """
    cfg = config if config is not None else Figure1Config.quick()
    factory = RngFactory(cfg.seed)
    beta = cfg.params.beta
    networks = figure1_networks(cfg)
    fad = channel if channel is not None else "rayleigh"

    key_rm = f"repeated-max {fad}"
    key_al = f"aloha {fad} (4-repeat)"
    key_dc = f"decay {fad} (4-repeat)"
    lat: dict[str, list[float]] = {
        "repeated-max nonfading": [],
        key_rm: [],
        "aloha nonfading": [],
        key_al: [],
        "decay nonfading": [],
        key_dc: [],
    }
    for net_idx, net in enumerate(networks):
        inst, _ = instance_pair(net, cfg.params, with_sqrt=False)
        lat["repeated-max nonfading"].append(
            float(repeated_max_latency(inst, beta).latency)
        )
        al_nf = aloha_latency(inst, beta, factory.stream("lat-aloha-nf", net_idx))
        lat["aloha nonfading"].append(float(al_nf.latency))
        lat["decay nonfading"].append(
            float(
                decay_latency(
                    inst, beta, factory.stream("lat-decay-nf", net_idx)
                ).latency
            )
        )
        # One faded channel (and Theorem-1 kernel) per network, shared by
        # all its runs; reset() restarts a block channel's coherence clock
        # as a freshly built channel would.
        ch = make_channel(fad, inst, beta)
        rm_r, al_r, dc_r = [], [], []
        for t in range(rayleigh_trials):
            ch.reset()
            rm_r.append(
                repeated_max_latency(
                    inst,
                    beta,
                    channel=ch,
                    rng=factory.stream("lat-rm-ray", net_idx, t),
                ).latency
            )
            ch.reset()
            # The auto probability depends only on (instance, β): reuse the
            # non-fading run's instead of re-peeling it every trial.
            al_r.append(
                aloha_latency(
                    inst,
                    beta,
                    factory.stream("lat-aloha-ray", net_idx, t),
                    q=al_nf.q_used,
                    channel=ch,
                ).latency
            )
            ch.reset()
            dc_r.append(
                decay_latency(
                    inst,
                    beta,
                    factory.stream("lat-decay-ray", net_idx, t),
                    channel=ch,
                ).latency
            )
        lat[key_rm].append(float(np.mean(rm_r)))
        lat[key_al].append(float(np.mean(al_r)))
        lat[key_dc].append(float(np.mean(dc_r)))

    rows = []
    means = {}
    for name, vals in lat.items():
        s = summarize(vals)
        means[name] = s.mean
        rows.append([name, s.mean, s.ci_half_width, s.minimum, s.maximum])
    rm_factor = means[key_rm] / means["repeated-max nonfading"]
    al_factor = means[key_al] / means["aloha nonfading"]
    dc_factor = means[key_dc] / means["decay nonfading"]
    rows.append([f"repeated-max {fad}/non-fading factor", rm_factor, None, None, None])
    rows.append([f"aloha {fad}/non-fading factor", al_factor, None, None, None])
    rows.append([f"decay {fad}/non-fading factor", dc_factor, None, None, None])
    checks = {
        f"{fad} latency within constant factor (repeated-max, <= 8x)": rm_factor <= 8.0,
        # The transformed protocols run 4 physical slots per protocol step,
        # so <= 8x total covers the 4x transformation plus stochastic
        # service.  Under heavy interference fading can even *help* the
        # randomized protocols (the Figure-1 high-q effect), so factors
        # below 1 are legitimate.
        f"{fad} latency within constant factor (aloha, <= 8x)": al_factor <= 8.0,
        f"{fad} latency within constant factor (decay, <= 8x)": dc_factor <= 8.0,
        "repeated-max beats aloha in both models": (
            means["repeated-max nonfading"] <= means["aloha nonfading"]
            and means[key_rm] <= means[key_al]
        ),
        "knowledge-free decay within 4x of tuned aloha (non-fading)": (
            means["decay nonfading"] <= 4.0 * means["aloha nonfading"]
        ),
    }
    text = format_table(
        ["scheduler/model", "mean latency", "ci95", "min", "max"],
        rows,
        title=f"E8 — latency minimization in both models (n={cfg.num_links}, "
        f"{cfg.num_networks} networks)",
        precision=2,
    )
    return ExperimentResult(
        experiment_id="E8",
        title="Latency schedulers: fading costs only a constant factor",
        text=text,
        data={name: vals for name, vals in lat.items()},
        config=repr(cfg),
        checks=checks,
    )
