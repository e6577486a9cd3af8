#!/usr/bin/env python
"""Tour of the extensions beyond the paper's evaluated scope.

Four studies the paper motivates but does not evaluate:

1. **Pareto frontier** — the full energy-vs-time trade-off curve that
   BiCrit samples one bound at a time, with its knee.
2. **Fail-stop fraction sweep** — the Section-5 combined model solved
   numerically across the whole f in [0, 1] range (the paper only
   analyses the limits).
3. **Multi-verification patterns** — q verifications per checkpoint
   (the related-work direction of Benoit/Robert/Raina) combined with
   two-speed re-execution.
4. **2-D region maps** — where in the (C, lambda) plane does a second
   speed actually pay?

Run:
    python examples/extensions_tour.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.analysis import map_regions
from repro.core.feasibility import min_performance_bound_config
from repro.core.numeric import solve_bicrit_exact
from repro.extensions import solve_bicrit_multiverif
from repro.sweep import checkpoint_axis, error_rate_axis, sweep_failstop_fraction


def show_pareto() -> None:
    print("=== 1. Pareto frontier (Hera/XScale) ===")
    cfg = repro.get_configuration("hera-xscale")
    # Sweep the bound from just above the feasibility edge; each
    # distinct optimum is one trade-off.
    rhos = np.linspace(min_performance_bound_config(cfg) * 1.0001, 10.0, 60)
    frontier = (
        repro.Experiment.over(configs=(cfg,), rhos=rhos).solve().frontier(prune=False)
    )
    knee = frontier.knee()
    for p in frontier.points:
        marker = "   <- knee (diminishing returns beyond here)" if p is knee else ""
        s1, s2 = p.result.speed_pair
        print(f"  T/W = {p.time_overhead:6.3f}  E/W = {p.energy_overhead:8.1f}  "
              f"pair = ({s1}, {s2}){marker}")


def show_fraction_sweep() -> None:
    print("\n=== 2. Fail-stop fraction sweep (Section 5, numeric solver) ===")
    cfg = repro.get_configuration("hera-xscale")
    sweep = sweep_failstop_fraction(
        cfg, rho=3.0, total_rate=5e-4, fractions=np.linspace(0, 1, 6)
    )
    print("  f     pair          Wopt      E/W")
    for f, s1, s2, w, e in zip(
        sweep.fractions, sweep.sigma1(), sweep.sigma2(),
        sweep.work(), sweep.energy_overhead(),
    ):
        print(f"  {f:4.2f}  ({s1}, {s2})   {w:7.0f}  {e:8.1f}")
    print("  -> fail-stop errors are detected early, so the more of the")
    print("     error budget they take, the cheaper the optimal pattern.")


def show_multiverif() -> None:
    print("\n=== 3. Multi-verification patterns (q checks per checkpoint) ===")
    base = repro.get_configuration("hera-xscale")
    print("  lambda      best q  pair         E/W       gain over q=1")
    for rate in (base.lam, 3e-5, 1e-4, 3e-4):
        cfg = base.with_error_rate(rate)
        multi = solve_bicrit_multiverif(cfg, 3.0, max_q=6)
        single = solve_bicrit_exact(cfg, 3.0)
        gain = (1 - multi.energy_overhead / single.energy_overhead) * 100
        print(
            f"  {rate:8.2e}  {multi.q:>5}   ({multi.sigma1}, {multi.sigma2})"
            f"  {multi.energy_overhead:8.1f}   {gain:6.2f}%"
        )
    print("  -> extra verifications only pay once errors are frequent")
    print("     enough that early detection beats their overhead.")


def show_regions() -> None:
    print("\n=== 4. Where do two speeds help? (C x lambda region map) ===")
    cfg = repro.get_configuration("hera-xscale")
    m = map_regions(
        cfg, rho=3.0,
        x_axis=checkpoint_axis(lo=100.0, hi=5000.0, n=10),
        y_axis=error_rate_axis(lo=1e-6, hi=3e-4, n=8),
    )
    region = m.two_speed_region(threshold=1.0)  # >1% saving
    print("  rows: C from 100 to 5000 s; cols: lambda from 1e-6 to 3e-4 (log)")
    for i, c in enumerate(m.x_values):
        cells = "".join(
            "#" if region[i, j] else ("." if m.feasible_mask()[i, j] else " ")
            for j in range(len(m.y_values))
        )
        print(f"  C={c:6.0f}  |{cells}|")
    print(f"  '#' = two speeds save > 1%  ({m.fraction_two_speed(1.0) * 100:.0f}% "
          f"of feasible cells); '.' = diagonal pair optimal")
    print(f"  distinct winning pairs on this grid: {len(m.distinct_pairs())}")


if __name__ == "__main__":
    show_pareto()
    show_fraction_sweep()
    show_multiverif()
    show_regions()
