#!/usr/bin/env python
"""The composable Experiment pipeline: lazy plans, batched analyses.

The paper's deliverables are derived analyses — Pareto frontiers,
savings curves, sensitivity maps — not single solves.  Since v1.5 they
compose through one query-style pipeline:

1. declare a scenario grid fluently (``Experiment.over``), filter it
   lazily (``.where``);
2. inspect the compiled :class:`ExecutionPlan` — duplicates are solved
   once, compatible scenarios are grouped into batched backend calls;
3. execute with progress callbacks (interrupted runs resume from the
   solve cache);
4. read the analyses off the result with typed verbs:
   ``.frontier()``, ``.savings()``, ``.sensitivity()``,
   ``.crossover()`` — for *any* schedule x error-model scenario, not
   just the paper's exponential two-speed case.

Run:
    python examples/experiment_pipeline.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.api import Experiment
from repro.core.feasibility import min_performance_bound_config


def main() -> None:
    rhos = tuple(float(r) for r in np.linspace(2.2, 6.0, 16))

    # ------------------------------------------------------------------
    # 1-2. A lazy grid and its compiled plan.  The grid deliberately
    # spells some scenarios twice (two:0.5,0.5 == const:0.5): the plan
    # solves each distinct point once.
    experiment = Experiment.over(
        configs=("hera-xscale",),
        rhos=rhos,
        schedules=(None, "two:0.5,0.5", "const:0.5"),
        name="pipeline-tour",
    ).where(lambda sc: sc.rho < 5.5)
    plan = experiment.plan()
    print(plan.describe())
    print()

    # ------------------------------------------------------------------
    # 3. Execute with a progress callback; run it twice to show the
    # cache-backed resume (second pass is all replays).
    results = plan.execute(
        progress=lambda p: print(
            f"  shard {p.done_shards}/{p.total_shards} [{p.backend}] "
            f"{p.solved_scenarios}/{p.total_scenarios} scenarios"
        )
    )
    replay = experiment.solve()
    print(f"first pass: {results.cache_hits()} replays; "
          f"second pass: {replay.cache_hits()}/{len(replay)} replays")
    print()

    # ------------------------------------------------------------------
    # 4a. Frontier verb: the energy-vs-time trade-off with its knee.
    frontier = results.frontier()
    knee = frontier.knee()
    print(f"frontier: {len(frontier)} non-dominated points, "
          f"knee at rho={knee.rho:.2f} "
          f"(T/W={knee.x:.3f}, E/W={knee.y:.1f})")

    # 4b. Savings verb: two-speed vs the one-speed baseline per bound.
    two_speed = Experiment.over(
        configs=("atlas-crusoe",), rhos=rhos, name="two-speed"
    ).solve()
    one_speed = Experiment.over(
        configs=("atlas-crusoe",), rhos=rhos, modes=("single-speed",),
        name="one-speed",
    ).solve()
    savings = two_speed.savings(one_speed)
    print(f"savings : up to {savings.max_savings_percent:.1f}% "
          f"at rho={savings.argmax_value:g} "
          f"({savings.num_points_with_savings()} points save energy)")

    # 4c. Sensitivity + crossover verbs along the bound axis.
    sens = two_speed.sensitivity()
    crossings = two_speed.crossover()
    print(f"analysis: |d ln E*/d ln rho| peaks at "
          f"{sens.max_abs_elasticity():.2f}; "
          f"{len(crossings)} optimal-pair crossovers, winners "
          f"{crossings.distinct_pairs()[:3]} ...")
    print()

    # ------------------------------------------------------------------
    # The pre-pipeline impossibility: a frontier over a *renewal* error
    # model under a *geometric* schedule, batched through the
    # schedule-grid kernel in one pass.
    renewal = Experiment.over(
        configs=("hera-xscale",),
        rhos=rhos,
        schedules=("geom:0.4,1.5,1",),
        error_models=("weibull:shape=0.7,mtbf=3e5",),
        name="weibull-geometric",
    ).solve()
    fr = renewal.frontier()
    print(f"renewal frontier (weibull x geometric): {len(fr)} trade-offs "
          f"via {', '.join(fr.provenance.backends)}, monotone={fr.is_monotone()}")

    # prune=False keeps the bound order and collapses only repeated
    # optima: one point per distinct trade-off along a bound sweep.
    edge = min_performance_bound_config(repro.get_configuration("hera-xscale"))
    sweep = Experiment.over(
        configs=("hera-xscale",), rhos=np.linspace(edge * 1.0001, 6.0, 20)
    ).solve()
    print(f"bound sweep: {len(sweep.frontier(prune=False))} distinct optima, "
          f"{len(sweep.frontier())} on the pruned staircase")


if __name__ == "__main__":
    main()
