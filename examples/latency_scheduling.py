"""Latency: drain every link's queue at least once, fast.

Scenario: a periodic data-collection round in a 60-link field network.
Every link must deliver one packet; the objective is the number of slots
until the last link is served.  The example compares

* the centralized repeated-maximization scheduler ([8]-style) against
  the distributed ALOHA-style protocol ([9]-style), and
* the non-fading prediction against the Rayleigh reality, where the
  ALOHA protocol uses the paper's 4-repeat transformation (Section 4).

It finishes with a multi-hop round: packets relayed across a relay chain
towards a sink, scheduled hop-by-hop.

Run:  python examples/latency_scheduling.py
"""

import numpy as np

from repro import (
    MultiHopRequest,
    Network,
    SINRInstance,
    UniformPower,
    aloha_latency,
    multihop_latency,
    paper_random_network,
    repeated_max_latency,
)

BETA, ALPHA, NOISE = 2.5, 2.2, 4e-7


def main() -> None:
    senders, receivers = paper_random_network(60, area=800.0, rng=99)
    net = Network(senders, receivers)
    inst = SINRInstance.from_network(net, UniformPower(2.0), ALPHA, NOISE)
    print(f"collection round over {net.n} links\n")

    # --- single-hop: four scheduler/model combinations --------------------
    rm_nf = repeated_max_latency(inst, BETA)
    rm_ray = [
        repeated_max_latency(inst, BETA, channel="rayleigh", rng=t).latency
        for t in range(10)
    ]
    al_nf = aloha_latency(inst, BETA, rng=0)
    al_ray = [
        aloha_latency(inst, BETA, rng=100 + t, channel="rayleigh").latency
        for t in range(10)
    ]
    print("scheduler          model       latency (slots)")
    print(f"repeated-max       non-fading  {rm_nf.latency}")
    print(f"repeated-max       Rayleigh    {np.mean(rm_ray):.1f} "
          f"(min {min(rm_ray)}, max {max(rm_ray)})")
    print(f"aloha (q={al_nf.q_used:.2f})     non-fading  {al_nf.latency}")
    print(f"aloha x4 transform Rayleigh    {np.mean(al_ray):.1f}")
    print(f"\n-> fading costs a factor "
          f"{np.mean(rm_ray) / rm_nf.latency:.1f} (repeated-max) / "
          f"{np.mean(al_ray) / al_nf.latency:.1f} (aloha incl. 4x repeats) "
          "— the constant-factor transfers of Section 4.\n")

    # --- multi-hop: relay chains toward a sink -----------------------------
    sink = np.array([400.0, 400.0])
    rng = np.random.default_rng(5)
    requests = []
    for _ in range(12):
        src = rng.uniform(0, 800, size=2)
        hops = max(1, int(np.linalg.norm(src - sink) // 120))
        path = np.linspace(src, sink, hops + 1)
        requests.append(MultiHopRequest(path))
    total_hops = sum(r.num_hops for r in requests)
    nf = multihop_latency(requests, beta=BETA, alpha=ALPHA, noise=NOISE)
    ray = multihop_latency(
        requests, beta=BETA, alpha=ALPHA, noise=NOISE, channel="rayleigh", rng=1
    )
    print(f"multi-hop: {len(requests)} requests, {total_hops} hops total")
    print(f"  makespan non-fading: {nf.makespan} slots "
          f"(longest request {max(r.num_hops for r in requests)} hops)")
    print(f"  makespan Rayleigh:   {ray.makespan} slots")


if __name__ == "__main__":
    main()
