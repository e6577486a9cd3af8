"""Bench: batched mixed-error-model grids vs the per-scenario loop.

The PR-4 acceptance bench, measured through the bench harness
(:mod:`benchmarks.harness`: host-adjusted median wall times over
repeated runs, bootstrap CIs).  A
(model x schedule x rho) grid mixing exponential, Weibull and Gamma
error models — every row a general schedule, so nothing short-circuits
into a two-speed closed form — is shared with ``python -m benchmarks.harness``
via :func:`benchmarks.harness.workloads.build_suite` and solved two ways:

* ``scalar_loop`` — the ``schedule`` backend's per-scenario
  ``solve_batch`` (minimise/bracket/minimise per scenario, SciPy scalar
  calls, model primitives one float at a time);
* ``schedule_grid`` — one ``schedule-grid`` batched pass: exponential
  rows ride the broadcast rate columns, renewal rows evaluate their
  CDF primitives row-wise but vectorised along the whole work axis, and
  the constrained solve runs in lockstep for all rows at once.

Both result sets must agree: feasibility identical, energy overheads to
1e-9 relative.  The grid sticks to the *smooth* families — a
trace-driven ECDF makes the overheads jump at each sample threshold, so
two correct solvers can land on opposite sides of the same step with
different objective values, and "agreement" is ill-defined there (the
trace evaluator itself is pinned exactly by the unit/Monte-Carlo tests;
see docs/errors.md).  The full report lands in
``results/BENCH_error_models.json``; the legacy summary stays in
``results/error_model_bench.csv``.
"""

from __future__ import annotations

from benchmarks.harness.report import run_suite
from benchmarks.harness.workloads import build_suite, error_model_scenarios
from repro.api.backends import get_backend
from repro.reporting.csvio import write_rows_csv

ENERGY_RTOL = 1e-9

N_MODELS = 8

_CSV_FIELDS = (
    "path",
    "scenarios",
    "models",
    "seconds_total",
    "seconds_per_scenario",
    "speedup_vs_scalar_loop",
    "max_rel_energy_error_smooth",
)


def _max_rel_energy(reference, candidate):
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


def test_error_model_grid_speedup(results_dir):
    """400-scenario mixed-model grid: batched pass >= 5x the scalar
    loop, <= 1e-9 relative energy disagreement on the smooth families."""
    scenarios = error_model_scenarios()
    assert len(scenarios) == 400

    scalar = get_backend("schedule").solve_batch(scenarios)
    batched = get_backend("schedule-grid").solve_batch(scenarios)

    n_feasible, max_rel = _max_rel_energy(scalar, batched)
    assert n_feasible > 200, "grid degenerated: most scenarios infeasible"
    assert max_rel <= ENERGY_RTOL, f"energy disagreement {max_rel:.2e}"

    report = run_suite("error_models", build_suite("error_models"), repetitions=3, warmup=0)
    report.write(results_dir)

    loop_median = report.workload("scalar_loop").median
    n = len(scenarios)
    rows = []
    for ws in report.workloads:
        rows.append(
            {
                "path": ws.name,
                "scenarios": n,
                "models": N_MODELS,
                "seconds_total": ws.median,
                "seconds_per_scenario": ws.median / n,
                "speedup_vs_scalar_loop": loop_median / ws.median,
                "max_rel_energy_error_smooth": (
                    max_rel if ws.name == "schedule_grid" else None
                ),
            }
        )
    write_rows_csv(results_dir / "error_model_bench.csv", _CSV_FIELDS, rows)

    speedup = loop_median / report.workload("schedule_grid").median
    assert speedup >= 5.0, f"schedule-grid only {speedup:.1f}x over the loop"
