"""Spectrum access as a game: equilibria, anarchy, and learning.

The capacity game of Section 6 through a game-theoretic lens (the
Andrews–Dinitz [5] transfer): selfish links decide whether to transmit;
we find pure Nash equilibria by best-response dynamics, measure the
price of anarchy against the scheduling optimum, and show that the
decentralized no-regret learners of Figure 2 reach the same welfare
ballpark — without any link ever seeing the network.

Run:  python examples/spectrum_game.py
"""

import numpy as np

from repro import (
    CapacityGame,
    Network,
    SINRInstance,
    UniformPower,
    best_response_dynamics,
    is_equilibrium,
    local_search_capacity,
    paper_random_network,
    price_of_anarchy_sample,
)
from repro.learning.diagnostics import convergence_report

BETA, ALPHA, NOISE = 2.5, 2.2, 4e-7


def main() -> None:
    senders, receivers = paper_random_network(80, area=900.0, rng=17)
    net = Network(senders, receivers)
    inst = SINRInstance.from_network(net, UniformPower(2.0), ALPHA, NOISE)
    opt = local_search_capacity(inst, BETA, rng=0, restarts=8).size
    print(f"{net.n} selfish links; scheduling optimum ≈ {opt} simultaneous successes\n")

    # --- pure equilibria by best-response dynamics -------------------------
    print("best-response dynamics from 6 random profiles:")
    for s in range(6):
        eq = best_response_dynamics(inst, BETA, rng=s)
        tag = "Nash" if eq.converged and is_equilibrium(inst, eq.actions, BETA) else "no fixpoint"
        print(f"  start {s}: {int(eq.actions.sum()):3d} senders, "
              f"welfare {eq.welfare:5.1f}, {eq.steps:3d} switches  [{tag}]")

    for channel in ("nonfading", "rayleigh"):
        sample = price_of_anarchy_sample(inst, BETA, rng=100, channel=channel, num_starts=10)
        print(f"\n[{channel}] equilibrium welfare {sample['worst']:.1f}"
              f"-{sample['best']:.1f} vs OPT {sample['opt']:.0f} "
              f"-> empirical PoA {sample['poa']:.2f}")
    print("\nNon-fading equilibria are (strongly maximal) feasible sets —")
    print("anarchy costs almost nothing on random instances; fading adds")
    print("its usual ~1/0.62 discount (cf. experiments E11/E16).\n")

    # --- and learning gets there without best-response coordination --------
    game = CapacityGame(inst, BETA, channel="rayleigh", rng=7)
    res = game.play(120)
    rep = convergence_report(res.success_counts.astype(float))
    print(f"no-regret learners (Rayleigh): final {rep.final_level:.1f} "
          f"successes/round; reached 50% of that by round {rep.round_to_half}, "
          f"90% by round {rep.round_to_90pct} "
          "(paper: 'good performance after 30 to 40 time steps').")


if __name__ == "__main__":
    main()
