#!/usr/bin/env python
"""Reproduce Figure 2: energy savings vs checkpoint cost on Atlas/Crusoe.

Sweeps the checkpointing cost C from 50 s to 5000 s, solving the
two-speed and single-speed problems at each point, and prints the three
panels of the paper's Figure 2 as one table: optimal speeds, optimal
pattern sizes, energy overheads — plus the savings column that yields
the paper's "up to 35%" headline.

Run:
    python examples/energy_savings_sweep.py
"""

from __future__ import annotations

from repro import Experiment, get_configuration
from repro.sweep import checkpoint_axis


def main() -> None:
    cfg = get_configuration("atlas-crusoe")
    rho = 3.0
    axis = checkpoint_axis(lo=50.0, hi=5000.0, n=34)
    print(f"sweeping C over [{axis.values[0]:g}, {axis.values[-1]:g}] s "
          f"on {cfg.name} at rho = {rho} ...\n")
    # One batch per problem: the two-speed optimum and the one-speed
    # baseline at every axis value.
    two = Experiment.over_axis(cfg, rho, axis).solve()
    one = Experiment.over_axis(cfg, rho, axis, modes=("single-speed",)).solve()
    savings = two.savings(one, values=axis.values, axis=axis.name)

    print(f"{'C':>7}  {'s1':>5} {'s2':>5} | {'s':>5}  "
          f"{'W(s1,s2)':>9} {'W(s,s)':>9}  {'E2/W':>8} {'E1/W':>8}  {'saving':>7}")
    for value, r2, r1, pct in zip(axis.values, two, one, savings.percent):
        print(
            f"{value:>7.0f}  {r2.best.sigma1:>5.2f} {r2.best.sigma2:>5.2f} | "
            f"{r1.best.sigma1:>5.2f}  {r2.work:>9.0f} {r1.work:>9.0f}  "
            f"{r2.energy_overhead:>8.1f} {r1.energy_overhead:>8.1f}  "
            f"{pct:>6.1f}%"
        )

    print()
    print(f"maximum saving: {savings.max_savings_percent:.1f}% "
          f"at C = {savings.argmax_value:g} s")
    print("(paper's Section 4.3.1 claim: 'up to 35% improvement')")

    print("\noptimal-pair crossovers along the sweep:")
    for ev in two.crossover(values=axis.values, axis=axis.name).events:
        print(f"  C in ({ev.value_before:.0f}, {ev.value_after:.0f}]: "
              f"{ev.pair_before} -> {ev.pair_after}")


if __name__ == "__main__":
    main()
