"""E6 — Theorem 2 / Algorithm 1: simulating the Rayleigh optimum.

For increasing network sizes, compare three per-link quantities under a
common transmission-probability vector ``q``:

* the exact single-slot Rayleigh success probability ``Q_i(q, β)``
  (Theorem 1),
* the measured probability that Algorithm 1's ``O(log* n)``-slot
  non-fading simulation serves the link at least once,
* the number of stages/slots the simulation used.

Lemma 3 predicts the simulation's any-slot success probability
dominates the Rayleigh one for every threshold up to ``S̄(i,i)/(2ν)``
(always satisfied here), and the stage count should track ``log* n`` —
both are recorded as shape checks.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.engine.executor import (
    Task,
    get_worker_context,
    make_tasks,
    map_tasks,
)
from repro.obs import StageTimer
from repro.engine.faults import is_failure
from repro.engine.registry import register, seed_kwargs
from repro.experiments.config import PaperParameters
from repro.experiments.runner import ExperimentResult
from repro.fading.success import success_probability
from repro.geometry.placement import paper_random_network
from repro.transform.simulation import simulate_rayleigh_optimum
from repro.utils.logstar import log_star
from repro.utils.rng import RngFactory
from repro.utils.tables import format_table

__all__ = ["run_theorem2"]

#: Trials per executor task.  A fixed constant (never derived from the
#: worker count) so the chunk boundaries — and hence the aggregation
#: order of the partial sums — are identical for every ``jobs`` value.
_TRIAL_CHUNK = 25


def _theorem2_instance(seed: int, n: int, pp: PaperParameters) -> SINRInstance:
    factory = RngFactory(seed)
    s, r = paper_random_network(n, rng=factory.stream("t2-net", n))
    return SINRInstance.from_network(
        Network(s, r), UniformPower(pp.power_scale), pp.alpha, pp.noise
    )


def _theorem2_sim_task(task: Task):
    """One chunk of Algorithm-1 trials for one network size.

    Returns partial sums ``(hits, utility_sum, num_stages, num_slots)``
    over trials ``[start, stop)``; every trial draws from its own named
    stream, so chunks are process-independent.
    """
    from repro.utility.shannon import ShannonUtility

    seed, q_level, pp = get_worker_context()
    n, start, stop = task.payload
    factory = RngFactory(seed)
    inst = _theorem2_instance(seed, n, pp)
    q = np.full(n, q_level)
    profile = ShannonUtility(n, cap=1e6)
    hits = np.zeros(n, dtype=np.int64)
    utility_sum = np.zeros(n, dtype=np.float64)
    num_stages = num_slots = 0
    for t in range(start, stop):
        out = simulate_rayleigh_optimum(
            inst, q, pp.beta, factory.stream("t2-sim", n, t)
        )
        hits += out.success
        utility_sum += profile(np.minimum(out.best_sinr, 1e6))
        num_stages, num_slots = out.num_stages, out.num_slots
    return hits, utility_sum, num_stages, num_slots


def _theorem2_util_task(task: Task) -> np.ndarray:
    """Per-link ``E[u(γ^R)]`` estimate for one network size, batched."""
    from repro.fading.models import simulate_sinr_patterns
    from repro.utility.shannon import ShannonUtility

    seed, q_level, pp = get_worker_context()
    n, util_trials = task.payload
    factory = RngFactory(seed)
    inst = _theorem2_instance(seed, n, pp)
    profile = ShannonUtility(n, cap=1e6)
    mc_rng = factory.stream("t2-util", n)
    patterns = mc_rng.random((util_trials, n)) < q_level
    sinr = simulate_sinr_patterns(inst, patterns, mc_rng)
    vals = np.where(patterns, profile(sinr), 0.0)
    return vals.sum(axis=0) / util_trials


@register(
    "E6",
    title="Theorem 2 / Algorithm 1 simulation",
    config=lambda scale, seed: {
        "trials": 500 if scale == "paper" else 150,
        **seed_kwargs(seed),
    },
)
def run_theorem2(
    *,
    sizes: tuple[int, ...] = (20, 50, 100),
    q_level: float = 0.5,
    trials: int = 200,
    params: "PaperParameters | None" = None,
    seed: int = 2012,
    jobs: "int | None" = 1,
) -> ExperimentResult:
    """Measure Algorithm 1 against the exact Rayleigh probabilities.

    Besides the threshold (Lemma 3) check, the full Theorem-2 statement
    for general utilities is measured with the Shannon profile: the
    expected Rayleigh utility must be at most 8x the expected utility of
    the best simulation slot, ``E[u(γ^R)] ≤ 8·E[u(max_t γ^{nf,t})]``
    (the constant from the proof's decomposition).
    """
    pp = params if params is not None else PaperParameters.figure1()
    util_trials = max(trials, 200)

    timer = StageTimer()
    with timer.stage("simulate"):
        chunks = [
            (n, start, min(start + _TRIAL_CHUNK, trials))
            for n in sizes
            for start in range(0, trials, _TRIAL_CHUNK)
        ]
        sim_tasks = make_tasks(chunks, root_seed=seed, name="t2-sim-task")
        sim_parts = map_tasks(
            _theorem2_sim_task,
            sim_tasks,
            jobs=jobs,
            context=(seed, q_level, pp),
            stage="simulate",
        )

    with timer.stage("utility"):
        util_tasks = make_tasks(
            [(n, util_trials) for n in sizes],
            root_seed=seed,
            name="t2-util-task",
        )
        ray_utilities = map_tasks(
            _theorem2_util_task,
            util_tasks,
            jobs=jobs,
            context=(seed, q_level, pp),
            stage="utility",
        )

    rows = []
    domination_ok = True
    stage_growth_ok = True
    utility_factor_ok = True
    utility_factors = []
    for size_idx, n in enumerate(sizes):
        inst = _theorem2_instance(seed, n, pp)
        q = np.full(n, q_level)
        rayleigh = success_probability(inst, q, pp.beta)
        hits = np.zeros(n, dtype=np.int64)
        sim_utility = np.zeros(n, dtype=np.float64)
        num_stages = num_slots = 0
        done_trials = 0  # trials whose chunk actually completed
        for chunk, part in zip(chunks, sim_parts):
            if chunk[0] != n or is_failure(part):
                continue
            hits += part[0]
            sim_utility += part[1]
            num_stages, num_slots = part[2], part[3]
            done_trials += chunk[2] - chunk[1]
        if done_trials == 0:
            raise RuntimeError(
                f"all E6 simulation chunks for n={n} failed; see the fault report"
            )
        sim_prob = hits / done_trials
        sim_utility /= done_trials  # E[u(max_t γ^{nf,t})] per link
        # E[u(γ^R)] per link under one Rayleigh slot with pattern ~ q.
        ray_utility = ray_utilities[size_idx]
        if is_failure(ray_utility):
            raise RuntimeError(
                f"the E6 utility task for n={n} failed: {ray_utility.describe()}"
            )
        factor = float(ray_utility.sum() / max(sim_utility.sum(), 1e-12))
        utility_factors.append(factor)
        utility_factor_ok &= factor <= 8.0
        # Per-link domination with a 4-sigma Bernoulli band on the estimate.
        band = 4.0 * np.sqrt(
            np.maximum(sim_prob * (1 - sim_prob), 1e-6) / done_trials
        )
        domination_ok &= bool(np.all(sim_prob + band >= rayleigh))
        stage_growth_ok &= num_stages >= log_star(n) - 2  # same growth order
        rows.append(
            [
                n,
                num_stages,
                num_slots,
                log_star(n),
                float(rayleigh.mean()),
                float(sim_prob.mean()),
                float((sim_prob - rayleigh).min()),
                factor,
            ]
        )
    checks = {
        "simulation success dominates Rayleigh per link (Lemma 3, 4-sigma)": domination_ok,
        "stage count grows like log* n": stage_growth_ok,
        "stage count stays tiny (<= 8 at n=100)": all(r[1] <= 8 for r in rows),
        "Shannon-utility factor E[u(γ^R)] / E[u(max γ^nf)] <= 8 (Theorem 2)": (
            utility_factor_ok
        ),
    }
    text = format_table(
        [
            "n",
            "stages",
            "slots",
            "log* n",
            "Rayleigh Q mean",
            "sim success mean",
            "min(sim - Q)",
            "utility factor",
        ],
        rows,
        title=f"E6 — Algorithm 1 simulation vs exact Rayleigh success (q={q_level}, "
        f"{trials} trials)",
        precision=4,
    )
    return ExperimentResult(
        experiment_id="E6",
        title="Theorem 2: O(log* n) non-fading simulation of the Rayleigh optimum",
        text=text,
        data={"rows": rows},
        config=f"sizes={sizes}, q={q_level}, trials={trials}, params={pp!r}",
        checks=checks,
        timings=timer.timings,
    )
