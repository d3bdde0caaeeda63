"""E5 — Lemma 2: the 1/e transfer factor, across utility families.

Run the non-fading capacity algorithms on Figure-1-style networks,
replay their solutions unchanged under Rayleigh fading, and measure the
expected-utility ratio.  Lemma 2 guarantees a ratio of at least 1/e for
every valid utility profile; the table reports the measured ratios for
binary, weighted, and Shannon utilities under both power assignments.
"""

from __future__ import annotations

import numpy as np

from repro.capacity.greedy import greedy_capacity
from repro.engine.executor import (
    Task,
    get_worker_context,
    make_tasks,
    map_tasks,
)
from repro.obs import StageTimer
from repro.engine.faults import usable_results
from repro.engine.registry import register, scaled_config
from repro.experiments.config import Figure1Config
from repro.experiments.runner import ExperimentResult
from repro.experiments.workloads import figure1_network, instance_pair
from repro.transform.blackbox import transfer_capacity_algorithm
from repro.utility.binary import BinaryUtility
from repro.utility.shannon import ShannonUtility
from repro.utility.weighted import WeightedUtility
from repro.utils.rng import RngFactory
from repro.utils.stats import summarize
from repro.utils.tables import format_table

__all__ = ["run_lemma2_transfer"]

ONE_OVER_E = float(np.exp(-1.0))


def _lemma2_task(task: Task) -> "list[tuple[str, str, float, bool]]":
    """One network: transfer ratios for every (power, utility) pair.

    Returns ``(power, utility, ratio, certified_ok)`` tuples for pairs
    with positive non-fading value.
    """
    cfg, mc_samples = get_worker_context()
    net_idx = task.payload
    factory = RngFactory(cfg.seed)
    beta = cfg.params.beta
    net = figure1_network(cfg, net_idx)
    uniform, sqrt_inst = instance_pair(net, cfg.params, with_sqrt=True)
    entries: list[tuple[str, str, float, bool]] = []
    for pw_name, inst in (("uniform", uniform), ("sqrt", sqrt_inst)):
        n = inst.n
        # Greedy is deterministic: one set per power assignment serves
        # every utility.
        greedy_set = greedy_capacity(inst, beta)
        weights_rng = factory.stream("lemma2-weights", net_idx, pw_name)
        profiles = {
            "binary": BinaryUtility(n, beta),
            "weighted": WeightedUtility(weights_rng.uniform(0.5, 2.0, n), beta),
            "shannon": ShannonUtility(n, cap=1e4),
        }
        for u_name, profile in profiles.items():
            report = transfer_capacity_algorithm(
                inst,
                profile,
                lambda _inst: greedy_set,
                rng=factory.stream("lemma2-mc", net_idx, pw_name, u_name),
                num_samples=mc_samples,
                beta=beta,
            )
            if report.nonfading_value > 0:
                certified = bool(
                    report.certified_bound
                    >= ONE_OVER_E * report.nonfading_value - 1e-9
                )
                entries.append((pw_name, u_name, report.ratio, certified))
    return entries


@register(
    "E5",
    title="Lemma 2: 1/e transfer",
    config=lambda scale, seed: {"config": scaled_config(Figure1Config, scale, seed)},
)
def run_lemma2_transfer(
    config: "Figure1Config | None" = None,
    *,
    mc_samples: int = 1500,
    jobs: "int | None" = 1,
) -> ExperimentResult:
    """Measure the Rayleigh/non-fading utility ratio of greedy solutions."""
    cfg = config if config is not None else Figure1Config.quick()

    timer = StageTimer()
    with timer.stage("sweep"):
        tasks = make_tasks(
            range(cfg.num_networks),
            root_seed=cfg.seed,
            name="lemma2-task",
        )
        per_network = map_tasks(
            _lemma2_task, tasks, jobs=jobs, context=(cfg, mc_samples), stage="networks"
        )

    ratios: dict[tuple[str, str], list[float]] = {}
    certified_ok = True
    for entries in usable_results(per_network, "the E5 transfer sweep"):
        for pw_name, u_name, ratio, certified in entries:
            ratios.setdefault((pw_name, u_name), []).append(ratio)
            certified_ok &= certified

    rows = []
    min_ratio = float("inf")
    for (pw_name, u_name), vals in sorted(ratios.items()):
        s = summarize(vals)
        min_ratio = min(min_ratio, s.minimum)
        rows.append([pw_name, u_name, s.mean, s.minimum, s.maximum, ONE_OVER_E])
    checks = {
        "certified bound >= (1/e) x non-fading value on every run": certified_ok,
        # The measured expectation can only exceed the certified bound;
        # tolerance covers Shannon's Monte-Carlo noise.
        "measured ratio >= 1/e on every instance (2% MC tolerance)": min_ratio
        >= ONE_OVER_E * 0.98,
    }
    text = format_table(
        ["power", "utility", "ratio mean", "ratio min", "ratio max", "1/e bound"],
        rows,
        title="E5 — Lemma 2 transfer: Rayleigh expected utility / non-fading utility",
        precision=4,
    )
    return ExperimentResult(
        experiment_id="E5",
        title="Lemma 2: black-box transfer keeps >= 1/e of utility",
        text=text,
        data={
            "ratios": {f"{p}/{u}": v for (p, u), v in ratios.items()},
            "one_over_e": ONE_OVER_E,
        },
        config=repr(cfg),
        checks=checks,
        timings=timer.timings,
    )
