"""Rayleigh vs non-fading, side by side (the paper's Figure 1 in small).

Sweeps the common transmission probability q and prints the mean number
of successful transmissions under both interference models and both
power assignments, reproducing the qualitative findings of Section 7:

* the Rayleigh curve is a smoothed version of the non-fading curve,
* the non-fading model predicts more success when interference is small
  (low q), Rayleigh more when interference is large (high q),
* both models peak at an interior q — neither "everyone transmits" nor
  "almost nobody" is optimal.

Uses the exact Theorem-1 expectation for the Rayleigh side (no fading
seeds needed).  The full-scale version of this experiment is
``python -m repro run E1 --scale paper`` (the verbatim paper
parameters).

Run:  python examples/model_comparison.py
"""

from repro.experiments import Figure1Config, run_figure1
from repro.utils.tables import sparkline


def main() -> None:
    cfg = Figure1Config(
        num_networks=10,
        num_links=100,
        num_transmit_seeds=15,
        probabilities=tuple(round(0.05 * k, 2) for k in range(1, 21)),
        seed=7,
    )
    result = run_figure1(cfg)
    print(result.text)
    print()
    q = result.data["q"]
    nf = result.data["uniform nonfading"]
    ray = result.data["uniform rayleigh"]
    peak_nf = q[nf.index(max(nf))]
    peak_ray = q[ray.index(max(ray))]
    crossings = [
        q[i] for i in range(1, len(q))
        if (nf[i] - ray[i]) * (nf[i - 1] - ray[i - 1]) < 0
    ]
    print(f"uniform power: non-fading peaks at q={peak_nf}, "
          f"Rayleigh at q={peak_ray}")
    if crossings:
        print(f"curves cross near q={crossings[0]} — below it the "
              "non-fading model is optimistic, above it fading helps "
              "(some links get lucky draws against heavy interference).")
    print("\nshape checks:", "all pass" if result.all_checks_pass else "FAILED")
    print("non-fading:", sparkline(nf))
    print("rayleigh:  ", sparkline(ray))


if __name__ == "__main__":
    main()
