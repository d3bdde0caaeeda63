"""Distributed capacity maximization by regret learning (Section 6).

No central scheduler: every link runs its own Randomized Weighted
Majority learner (losses and η schedule exactly as in the paper's
Figure 2) and decides each round whether to transmit.  The example runs
the game in both interference models, prints the convergence trajectory,
and verifies the paper's analysis quantities:

* external regret per round (Definition 2) falls over time,
* realized and expected regret stay close (Lemma 4),
* the invariant X ≤ F ≤ 2X + εn holds (Lemma 5),
* the converged capacity is a constant fraction of the non-fading
  optimum (Theorems 3–4).

Run:  python examples/distributed_learning.py
"""

import numpy as np

from repro import (
    CapacityGame,
    Exp3Learner,
    Network,
    SINRInstance,
    UniformPower,
    local_search_capacity,
    paper_random_network,
)

BETA, ALPHA, NOISE = 0.5, 2.1, 0.0  # Figure-2 physics
N_LINKS, ROUNDS = 120, 120


def main() -> None:
    senders, receivers = paper_random_network(
        N_LINKS, min_length=0.0, max_length=100.0, rng=2012
    )
    net = Network(senders, receivers)
    inst = SINRInstance.from_network(net, UniformPower(2.0), ALPHA, NOISE)
    opt = local_search_capacity(inst, BETA, rng=0, restarts=8).size
    print(f"{N_LINKS} links; non-fading OPT estimate: {opt} simultaneous successes\n")

    results = {}
    for channel in ("nonfading", "rayleigh"):
        game = CapacityGame(inst, BETA, channel=channel, rng=42)
        results[channel] = game.play(ROUNDS)

    print("round   successes (non-fading)   successes (Rayleigh)")
    for t in (1, 5, 10, 20, 30, 40, 60, 80, ROUNDS):
        nf = results["nonfading"].success_counts[t - 1]
        ray = results["rayleigh"].success_counts[t - 1]
        print(f"{t:5d}   {nf:23d}   {ray:20d}")

    for model, res in results.items():
        tail = res.average_successes(30)
        regret = res.realized_regret()
        print(f"\n[{model}] tail capacity {tail:.1f}/round "
              f"({tail / opt:.0%} of OPT), "
              f"mean regret/round {regret.mean() / ROUNDS:+.3f}")
        X, F = res.lemma5(inst)
        eps = float(res.expected_regret(inst).max()) / ROUNDS
        print(f"[{model}] Lemma 5: X={X:.1f} <= F={F:.1f} "
              f"<= 2X+εn={2 * X + eps * N_LINKS:.1f}  "
              f"({'OK' if X <= F <= 2 * X + eps * N_LINKS + 1e-6 else 'VIOLATED'})")
        if model == "rayleigh":
            gap = np.abs(res.expected_regret(inst) - regret).max()
            bound = 4.0 * np.sqrt(ROUNDS * np.log(ROUNDS))
            print(f"[rayleigh] Lemma 4: max |R_h - R_h̄| = {gap:.1f} "
                  f"(O(sqrt(T ln T)) scale: {bound:.1f})")

    # Bandit-feedback variant: links observe only what they played.
    bandit = CapacityGame(inst, BETA, channel="rayleigh", rng=43)
    learners = [Exp3Learner(rng=i, horizon=ROUNDS) for i in range(N_LINKS)]
    res = bandit.play(ROUNDS, learners=learners)
    print(f"\n[exp3 bandit, rayleigh] tail capacity "
          f"{res.average_successes(30):.1f}/round — partial information "
          "learns slower but the same dynamics apply ([23]).")


if __name__ == "__main__":
    main()
