"""E20 — how wrong graph interference models are, by density.

The paper's introduction recalls that research moved from graph-based
interference models to SINR models because pairwise compatibility misses
*aggregate* interference ("significantly different techniques than in
graph-based models have to be applied").  This experiment quantifies
that motivation on the paper's own workload: at each density, sample
independent sets of the pairwise-conflict graph and measure the fraction
that violate the SINR constraints.

Expected shape: near zero for sparse deployments (pairwise ≈ aggregate
when neighbours are few) and rising towards 1 at the paper's density and
beyond — at Figure-1 density, essentially *every* graph-feasible
schedule is SINR-infeasible, which is exactly why the paper's machinery
is needed.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.graphs import conflict_graph, graph_model_gap
from repro.core.network import Network
from repro.core.power import UniformPower
from repro.core.sinr import SINRInstance
from repro.engine.registry import register, seed_kwargs
from repro.experiments.config import PaperParameters
from repro.experiments.runner import ExperimentResult
from repro.geometry.placement import paper_random_network
from repro.utils.rng import RngFactory
from repro.utils.tables import format_table

__all__ = ["run_graph_gap"]


@register(
    "E20",
    title="Graph-model gap vs density (why SINR)",
    config=lambda scale, seed: {
        "networks_per_area": 5 if scale == "paper" else 3,
        "num_samples": 300 if scale == "paper" else 120,
        **seed_kwargs(seed),
    },
)
def run_graph_gap(
    *,
    num_links: int = 60,
    areas: tuple[float, ...] = (6000.0, 2400.0, 1200.0, 775.0, 500.0),
    networks_per_area: int = 3,
    num_samples: int = 120,
    params: "PaperParameters | None" = None,
    seed: int = 2012,
) -> ExperimentResult:
    """Sweep density; measure the graph-model violation fraction."""
    pp = params if params is not None else PaperParameters.figure1()
    factory = RngFactory(seed)
    rows = []
    gaps = []
    for area in areas:
        gap_vals = []
        edge_counts = []
        for k in range(networks_per_area):
            s, r = paper_random_network(
                num_links, area=area, rng=factory.stream("gg-net", area, k)
            )
            inst = SINRInstance.from_network(
                Network(s, r), UniformPower(pp.power_scale), pp.alpha, pp.noise
            )
            gap_vals.append(
                graph_model_gap(
                    inst,
                    pp.beta,
                    factory.stream("gg-sample", area, k),
                    num_samples=num_samples,
                )
            )
            edge_counts.append(int(np.triu(conflict_graph(inst, pp.beta), 1).sum()))
        density = num_links / area**2 * 1e6
        mean_gap = sum(gap_vals) / len(gap_vals)
        gaps.append(mean_gap)
        rows.append(
            [area, density, sum(edge_counts) / len(edge_counts), mean_gap]
        )
    # Paper density (100 links per 1000² == 'density 100' in these units).
    paper_like = [g for row, g in zip(rows, gaps) if row[1] >= 90.0]
    checks = {
        "gap (weakly) increases with density": all(
            a <= b + 0.1 for a, b in zip(gaps, gaps[1:])
        ),
        "sparse deployments nearly graph-exact (gap <= 0.3)": gaps[0] <= 0.3,
        "graph model essentially useless at paper density (gap >= 0.7)": (
            bool(paper_like) and min(paper_like) >= 0.7
        ),
    }
    text = format_table(
        ["area", "links per 1000²", "mean conflict edges", "SINR-violation fraction"],
        rows,
        title=f"E20 — graph-model gap vs density (n={num_links}, "
        f"{num_samples} sampled independent sets each)",
        precision=3,
    )
    return ExperimentResult(
        experiment_id="E20",
        title="Why SINR: fraction of graph-feasible schedules that fail under SINR",
        text=text,
        data={"rows": rows, "gaps": gaps},
        config=f"n={num_links}, areas={areas}",
        checks=checks,
    )
