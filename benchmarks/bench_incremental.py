"""Bench: the incremental (warm-started) solve tier vs the cold pass.

The ``schedule-grid-incremental`` backend claims sublinear sweep cost:
along a dense sweep the delta tier dedups the per-(V, s) evaluation
work to one scan per distinct row and warm-starts every point's
crossing brackets and golden-section interval from its neighbour's
optimum, falling back to the exact cold solve whenever a validation
probe fails.  This bench measures that claim on the two acceptance
shapes (through :func:`repro.perf.workloads.build_suite`, shared with
the ``repro bench`` CLI and the CI smoke gate):

* ``sweep_1axis`` — a dense 10k-point rho sweep of one
  (config, schedule) row; the tier must be >= 5x the cold solve;
* ``grid_2axis`` — a 64 x 96 error-rate x rho grid (one warm chain
  per rate); the tier must be >= 2x.

Accuracy is pinned before any timing: energies within 1e-9 absolute
of the cold solve on every row, identical feasibility, and the rows
the tier solves cold (anchors + fallbacks) byte-identical to the cold
pass.  The full report lands in ``results/BENCH_incremental.json``;
the summary CSV in ``results/incremental_bench.csv``.
"""

from __future__ import annotations

import numpy as np

from repro.perf import BenchRunner, build_suite
from repro.perf.workloads import incremental_axis_points, incremental_grid_points
from repro.reporting.csvio import write_rows_csv
from repro.schedules.incremental import solve_schedule_grid_incremental
from repro.schedules.vectorized import ScheduleGrid, solve_schedule_grid

ENERGY_ATOL = 1e-9

_CSV_FIELDS = (
    "shape",
    "rows",
    "path",
    "seconds_total",
    "speedup_vs_cold",
    "warm_rows",
    "fallback_rows",
    "max_abs_energy_error",
)


def _equivalence(points, rhos):
    """Solve one shape both ways; returns (stats, max abs energy error)
    after asserting feasibility agreement and cold-row byte identity."""
    grid = ScheduleGrid.from_points(points)
    cold = solve_schedule_grid(grid, rhos)
    warm = solve_schedule_grid_incremental(grid, rhos)
    assert np.array_equal(cold.feasible, warm.feasible)
    err = np.abs(np.where(cold.feasible, warm.energy_overhead - cold.energy_overhead, 0.0))
    # Rows the tier solved cold (anchors and fallbacks) ride the exact
    # cold path and must match bit-for-bit.
    cold_rows = ~warm.warm & cold.feasible
    assert np.array_equal(warm.energy_overhead[cold_rows], cold.energy_overhead[cold_rows])
    return warm.stats, float(err.max(initial=0.0))


def test_incremental_speedup(results_dir):
    """10k-point sweep >= 5x, 64 x 96 grid >= 2x, energies <= 1e-9."""
    axis_pts, axis_rhos = incremental_axis_points()
    grid_pts, grid_rhos = incremental_grid_points()
    assert len(axis_pts) == 10_000
    assert len(grid_pts) == 64 * 96

    axis_stats, axis_err = _equivalence(axis_pts, axis_rhos)
    grid_stats, grid_err = _equivalence(grid_pts, grid_rhos)
    assert axis_err <= ENERGY_ATOL, f"1-axis energy disagreement {axis_err:.2e}"
    assert grid_err <= ENERGY_ATOL, f"2-axis energy disagreement {grid_err:.2e}"
    # The sweeps must actually exercise the warm path, not fall back.
    assert axis_stats.warm > 0.9 * axis_stats.n
    assert grid_stats.warm > 0.8 * grid_stats.n

    report = BenchRunner(repetitions=5, warmup=1).run(
        "incremental", build_suite("incremental")
    )
    report.write(results_dir)

    rows = []
    for shape, n, stats, err in (
        ("sweep_1axis", len(axis_pts), axis_stats, axis_err),
        ("grid_2axis", len(grid_pts), grid_stats, grid_err),
    ):
        cold_ws = report.workload(f"{shape}_cold")
        warm_ws = report.workload(f"{shape}_incremental")
        rows.append(
            {
                "shape": shape,
                "rows": n,
                "path": "cold",
                "seconds_total": cold_ws.median,
                "speedup_vs_cold": 1.0,
                "warm_rows": None,
                "fallback_rows": None,
                "max_abs_energy_error": None,
            }
        )
        rows.append(
            {
                "shape": shape,
                "rows": n,
                "path": "incremental",
                "seconds_total": warm_ws.median,
                "speedup_vs_cold": warm_ws.speedup,
                "warm_rows": stats.warm,
                "fallback_rows": stats.fallback,
                "max_abs_energy_error": err,
            }
        )
    write_rows_csv(results_dir / "incremental_bench.csv", _CSV_FIELDS, rows)

    axis_ws = report.workload("sweep_1axis_incremental")
    grid_ws = report.workload("grid_2axis_incremental")
    assert axis_ws.speedup >= 5.0, (
        f"1-axis sweep only {axis_ws.speedup:.2f}x over the cold solve"
    )
    assert axis_ws.speedup_ci[0] > 1.0, "1-axis speedup CI overlaps parity"
    assert grid_ws.speedup >= 2.0, (
        f"2-axis grid only {grid_ws.speedup:.2f}x over the cold solve"
    )
    assert grid_ws.speedup_ci[0] > 1.0, "2-axis speedup CI overlaps parity"
