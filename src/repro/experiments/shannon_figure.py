"""E17 — Figure 1 with Shannon utilities: the crossover is a threshold
artifact.

The paper's figures use binary utilities; its theory covers arbitrary
valid utility functions (Definition 1).  This experiment re-runs the
Figure-1 sweep with the Shannon profile ``u(γ) = log(1 + γ)`` and
contrasts the shapes:

* **binary** — interior peak and a Rayleigh/non-fading crossover (more
  transmitters eventually destroy *threshold* successes, and fading's
  lucky draws win at high interference);
* **Shannon** — both curves increase monotonically in q (the log softens
  the interference penalty, so total rate keeps growing), and the
  non-fading curve dominates at *every* q with a ratio close to E5's
  Shannon transfer ratio (~0.88 ≥ 1/e): under a smooth utility there is
  nothing for fading's luck to win.

Rayleigh values are Monte-Carlo (Shannon utility has no closed-form
expectation); non-fading values are exact given the sampled patterns.
"""

from __future__ import annotations

import numpy as np

from repro.engine.registry import register, scaled_config
from repro.experiments.config import Figure1Config
from repro.experiments.runner import ExperimentResult
from repro.experiments.workloads import figure1_networks, instance_pair
from repro.fading.models import simulate_sinr
from repro.utility.shannon import ShannonUtility
from repro.utils.rng import RngFactory
from repro.utils.tables import format_series

__all__ = ["run_shannon_figure"]


@register(
    "E17",
    title="Shannon-utility Figure 1 (no crossover)",
    config=lambda scale, seed: {
        "config": scaled_config(Figure1Config, scale, seed),
        "fading_slots": 10 if scale == "paper" else 6,
    },
)
def run_shannon_figure(
    config: "Figure1Config | None" = None,
    *,
    fading_slots: int = 6,
    sinr_cap: float = 1e4,
) -> ExperimentResult:
    """Sweep q and measure total Shannon capacity in both models."""
    cfg = config if config is not None else Figure1Config.quick()
    factory = RngFactory(cfg.seed)
    probs = np.asarray(cfg.probabilities, dtype=np.float64)
    networks = figure1_networks(cfg)

    nf_curve = np.zeros(probs.size)
    ray_curve = np.zeros(probs.size)
    samples = np.zeros(probs.size)
    for net_idx, net in enumerate(networks):
        inst, _ = instance_pair(net, cfg.params, with_sqrt=False)
        profile = ShannonUtility(inst.n, cap=sinr_cap)
        gen = factory.stream("shannon-run", net_idx)
        for k, q in enumerate(probs):
            for _ in range(cfg.num_transmit_seeds):
                pattern = gen.random(inst.n) < q
                if not pattern.any():
                    samples[k] += 1
                    continue
                sinr_nf = inst.sinr(pattern)
                nf_curve[k] += float(profile(sinr_nf)[pattern].sum())
                sinr_r = simulate_sinr(inst, pattern, gen, num_slots=fading_slots)
                ray_curve[k] += float(
                    np.where(pattern, profile(sinr_r), 0.0).sum(axis=1).mean()
                )
                samples[k] += 1
    nf_curve /= np.maximum(samples, 1)
    ray_curve /= np.maximum(samples, 1)

    ratio = ray_curve / np.maximum(nf_curve, 1e-12)
    # Noise tolerance for monotonicity: a few percent of the curve top.
    tol = 0.04 * float(nf_curve.max())
    checks = {
        "non-fading Shannon capacity monotone in q (no interior peak)": bool(
            np.all(np.diff(nf_curve) >= -tol)
        ),
        "Rayleigh Shannon capacity monotone in q": bool(
            np.all(np.diff(ray_curve) >= -tol)
        ),
        "non-fading dominates at every q (no crossover)": bool(
            np.all(nf_curve + tol >= ray_curve)
        ),
        "transfer ratio within [1/e, 1] everywhere": bool(
            np.all(ratio >= np.exp(-1.0) - 0.02) and np.all(ratio <= 1.0 + 0.05)
        ),
    }
    text = format_series(
        "q",
        [float(p) for p in probs],
        {
            "shannon nonfading": nf_curve.tolist(),
            "shannon rayleigh": ray_curve.tolist(),
            "ratio": ratio.tolist(),
        },
        title="E17 — total Shannon capacity vs transmission probability",
        precision=2,
    )
    return ExperimentResult(
        experiment_id="E17",
        title="Shannon-utility Figure 1: the crossover is a threshold artifact",
        text=text,
        data={
            "q": probs.tolist(),
            "nonfading": nf_curve.tolist(),
            "rayleigh": ray_curve.tolist(),
            "ratio": ratio.tolist(),
        },
        config=repr(cfg),
        checks=checks,
    )
