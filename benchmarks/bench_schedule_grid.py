"""Bench: the ``schedule-grid`` batch kernel vs the per-scenario loop.

PR 1 measured the two-speed ``grid`` backend at ~17x over the scalar
loop; this bench is the general-schedule analogue, measured through
the bench harness (:mod:`benchmarks.harness`: repeated runs,
host-adjusted median wall times, bootstrap CIs).  The
1000-scenario grid (10 general schedules x 10 bounds x 10 error rates,
all routed to the numeric constrained solve) is shared with
``python -m benchmarks.harness`` via
:func:`benchmarks.harness.workloads.build_suite` and solved two ways:

* ``scalar_loop`` — the ``schedule`` backend's per-scenario
  ``solve_batch`` (minimise/bracket/minimise per scenario, SciPy
  scalar calls);
* ``schedule_grid`` — one :func:`repro.schedules.vectorized.solve_schedule_grid`
  pass (shared coarse scan + lockstep bisection/golden section).

Both result sets must agree (feasibility identical, energy overheads to
1e-12 relative).  The full report
lands in ``results/BENCH_schedule_grid.json``; the legacy summary stays
in ``results/schedule_grid_bench.csv``.
"""

from __future__ import annotations

from benchmarks.harness.report import run_suite
from benchmarks.harness.workloads import build_suite, schedule_grid_scenarios
from repro.api.backends import get_backend
from repro.reporting.csvio import write_rows_csv

ENERGY_RTOL = 1e-12

_CSV_FIELDS = (
    "path",
    "scenarios",
    "seconds_total",
    "seconds_per_scenario",
    "speedup_vs_scalar_loop",
    "max_rel_energy_error",
)


def _max_rel_energy(reference, candidate):
    """Feasibility must match row-for-row; returns the max relative
    energy-overhead disagreement over the feasible rows."""
    n_feasible = 0
    max_rel = 0.0
    for r, c in zip(reference, candidate):
        assert c.feasible == r.feasible
        if not r.feasible:
            continue
        n_feasible += 1
        rel = abs(c.best.energy_overhead - r.best.energy_overhead) / abs(
            r.best.energy_overhead
        )
        max_rel = max(max_rel, rel)
    return n_feasible, max_rel


def test_schedule_grid_speedup(results_dir):
    """1k-scenario grid: vectorised pass >= 10x the scalar loop, <= 1e-12
    relative disagreement on the energy objective."""
    scenarios = schedule_grid_scenarios()
    assert len(scenarios) == 1000

    scalar = get_backend("schedule").solve_batch(scenarios)
    batched = get_backend("schedule-grid").solve_batch(scenarios)

    n_feasible, max_rel = _max_rel_energy(scalar, batched)
    assert n_feasible > 500, "grid degenerated: most scenarios infeasible"
    assert max_rel <= ENERGY_RTOL, f"energy disagreement {max_rel:.2e}"

    report = run_suite("schedule_grid", build_suite("schedule_grid"), repetitions=3, warmup=0)
    report.write(results_dir)

    loop_ws = report.workload("scalar_loop")
    grid_ws = report.workload("schedule_grid")
    speedup = loop_ws.median / grid_ws.median
    n = len(scenarios)
    write_rows_csv(
        results_dir / "schedule_grid_bench.csv",
        _CSV_FIELDS,
        [
            {
                "path": "scalar_loop",
                "scenarios": n,
                "seconds_total": loop_ws.median,
                "seconds_per_scenario": loop_ws.median / n,
                "speedup_vs_scalar_loop": 1.0,
                "max_rel_energy_error": None,
            },
            {
                "path": "schedule_grid",
                "scenarios": n,
                "seconds_total": grid_ws.median,
                "seconds_per_scenario": grid_ws.median / n,
                "speedup_vs_scalar_loop": speedup,
                "max_rel_energy_error": max_rel,
            },
        ],
    )

    assert speedup >= 10.0, f"schedule-grid only {speedup:.1f}x over the loop"
