#!/usr/bin/env python
"""Quickstart: solve BiCrit for a catalog configuration.

Reproduces the headline workflow of the paper in a dozen lines: pick a
platform/processor pair, set the admissible performance degradation
``rho``, and get back the energy-optimal speed pair and checkpointing
pattern size.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.reporting import format_speed_pair_table
from repro.sweep import speed_pair_table


def main() -> None:
    # Hera platform (LLNL, via Moody et al.) + Intel XScale DVFS processor.
    cfg = repro.get_configuration("hera-xscale")
    print(f"configuration : {cfg.name}")
    print(f"error rate    : lambda = {cfg.lam:.3g} /s  (MTBF {cfg.platform.mtbf/3600:.0f} h)")
    print(f"checkpoint    : C = {cfg.checkpoint_time:g} s, verification V = {cfg.verification_time:g} s")
    print(f"DVFS speeds   : {cfg.speeds}")
    print()

    # Solve for the paper's default performance bound rho = 3: the
    # expected time per unit of work may be at most 3 seconds.
    rho = 3.0
    solution = repro.solve_bicrit(cfg, rho)
    best = solution.best
    print(f"BiCrit optimum at rho = {rho}:")
    print(f"  first-execution speed  sigma1 = {best.sigma1}")
    print(f"  re-execution speed     sigma2 = {best.sigma2}")
    print(f"  pattern size           Wopt   = {best.work:.0f} work units")
    print(f"  energy overhead        E/W    = {best.energy_overhead:.1f} mJ per work unit")
    print(f"  time overhead          T/W    = {best.time_overhead:.3f} s per work unit")
    print()

    # The full per-sigma1 table (Section 4.2 of the paper).
    print(format_speed_pair_table(speed_pair_table(cfg, rho)))
    print()

    # Tighten the bound: a different (two-speed!) pair wins.
    tight = repro.solve_bicrit(cfg, 1.775).best
    print(
        f"at rho = 1.775 the optimum becomes ({tight.sigma1}, {tight.sigma2}) "
        f"with Wopt = {tight.work:.0f} - a genuinely different re-execution speed."
    )
    print()

    # The same solves through the unified API: declarative scenarios,
    # batched experiments, and provenance (see docs/api.md).
    result = repro.Scenario(config="hera-xscale", rho=rho).solve()
    print(
        f"Scenario API: best pair {result.best.speed_pair} "
        f"via the {result.provenance.backend!r} backend "
        f"(cache hit: {result.provenance.cache_hit})"
    )
    exp = repro.Experiment.over(rhos=(1.775, 3.0))  # full catalog x 2 bounds
    results = exp.solve()  # one vectorised broadcast pass
    feasible = int(results.feasible_mask().sum())
    print(
        f"Experiment API: solved {len(results)} scenarios in one grid batch "
        f"({feasible} feasible, {results.total_wall_time()*1e3:.1f} ms total)"
    )


if __name__ == "__main__":
    main()
