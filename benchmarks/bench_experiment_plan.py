"""Bench: a batched Experiment frontier vs the legacy per-point loop.

The acceptance case of PR 5, measured through the bench harness
(:mod:`benchmarks.harness`): a Pareto frontier over a *renewal* error model (Weibull,
shape 0.7) under a *non-two-speed* schedule (geometric escalation) — a
combination the pre-pipeline ``repro.analysis.pareto`` could not
express at all.  The rho grid is shared with ``python -m benchmarks.harness``
via :func:`benchmarks.harness.workloads.build_suite` and solved twice:

* ``per_point_loop`` — one ``Scenario.solve(cache=False)`` per bound,
  the way the legacy analysis modules drove their solvers (each call
  pays a full backend round-trip; the vectorised kernel sees batches
  of one);
* ``batched_plan`` — one ``Experiment`` plan whose single
  ``schedule-grid`` group solves the whole frontier in lockstep
  broadcast passes.

Both paths must agree to 1e-12 relative on the energy objective (the
kernel's rows are batch-composition independent); the full report lands
in ``results/BENCH_experiment_plan.json`` and the legacy summary in
``results/experiment_plan_bench.csv``.
"""

from __future__ import annotations

from benchmarks.harness.report import run_suite
from benchmarks.harness.workloads import build_suite, experiment_plan_scenarios
from repro.api import Experiment
from repro.reporting.csvio import write_rows_csv

ENERGY_RTOL = 1e-12

_CSV_FIELDS = (
    "path",
    "scenarios",
    "frontier_points",
    "seconds_total",
    "seconds_per_scenario",
    "speedup_vs_per_point_loop",
    "max_rel_energy_error",
)


def test_experiment_plan_speedup(results_dir):
    """Renewal-model x general-schedule frontier: the batched plan must
    be >= 10x the per-point loop at <= 1e-12 energy disagreement."""
    scenarios = experiment_plan_scenarios()
    assert len(scenarios) == 96

    # Legacy shape: one solve per frontier point, no batching, no cache.
    per_point = []
    for sc in scenarios:
        try:
            per_point.append(sc.solve(cache=False))
        except Exception:  # infeasible head points mirror frontier skips
            per_point.append(None)

    # The pipeline: one deduplicated plan, one schedule-grid group.
    experiment = Experiment.from_scenarios(scenarios, name="bench-frontier")
    plan = experiment.plan()
    assert plan.n_unique == len(scenarios)
    assert [g.backend for g in plan.groups] == ["schedule-grid"]
    batched = plan.execute(cache=False)

    frontier = batched.frontier()
    assert len(frontier) >= 1
    assert frontier.is_monotone()

    n_feasible = 0
    max_rel = 0.0
    for loop_res, batch_res in zip(per_point, batched):
        if loop_res is None:
            assert not batch_res.feasible
            continue
        n_feasible += 1
        rel = abs(
            batch_res.best.energy_overhead - loop_res.best.energy_overhead
        ) / abs(loop_res.best.energy_overhead)
        max_rel = max(max_rel, rel)
    assert n_feasible >= len(scenarios) // 2, "frontier grid mostly infeasible"
    assert max_rel <= ENERGY_RTOL, f"energy disagreement {max_rel:.2e}"

    report = run_suite(
        "experiment_plan", build_suite("experiment_plan"), repetitions=3, warmup=0
    )
    report.write(results_dir)

    loop_ws = report.workload("per_point_loop")
    plan_ws = report.workload("batched_plan")
    speedup = loop_ws.median / plan_ws.median
    n = len(scenarios)
    write_rows_csv(
        results_dir / "experiment_plan_bench.csv",
        _CSV_FIELDS,
        [
            {
                "path": "per_point_loop",
                "scenarios": n,
                "frontier_points": len(frontier),
                "seconds_total": loop_ws.median,
                "seconds_per_scenario": loop_ws.median / n,
                "speedup_vs_per_point_loop": 1.0,
                "max_rel_energy_error": None,
            },
            {
                "path": "batched_plan",
                "scenarios": n,
                "frontier_points": len(frontier),
                "seconds_total": plan_ws.median,
                "seconds_per_scenario": plan_ws.median / n,
                "speedup_vs_per_point_loop": speedup,
                "max_rel_energy_error": max_rel,
            },
        ],
    )

    assert speedup >= 10.0, f"batched plan only {speedup:.1f}x over the loop"
