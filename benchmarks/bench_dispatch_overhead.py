"""Bench: a long-lived warm pool vs a fresh pool per plan.

The transport-layer perf claim, measured through the bench harness
(:mod:`benchmarks.harness`: host-adjusted median wall times, bootstrap
CIs): a sequence of small
multi-process plans dispatched through the persistent process-wide
:class:`~repro.exec.warm.WarmWorkerPool` (``transport="warm"``) must
beat the same sequence through ``processes=2``, which spawns a fresh
pool for each plan and shuts it down before the call returns, because
the long-lived fleet pays worker spawn once instead of once per plan.  The plans are small and
per-scenario-backend on purpose — dispatch, not solving, dominates —
and caching is disabled on both sides.  The grid is shared with
``python -m benchmarks.harness`` via
:func:`benchmarks.harness.workloads.build_suite`; the
full report lands in ``results/BENCH_dispatch_overhead.json``.
"""

from __future__ import annotations

from benchmarks.harness.report import run_suite
from benchmarks.harness.workloads import build_suite, dispatch_scenarios
from repro.api.experiment import Experiment
from repro.exec import WarmWorkerPool
from repro.reporting.csvio import write_rows_csv


def test_warm_pool_vs_cold_pool_dispatch(results_dir):
    """Measure both dispatch paths, pin equivalence, record the gap."""
    scenarios = dispatch_scenarios()
    exp = Experiment.from_scenarios(scenarios, name="dispatch-equiv")

    cold = exp.solve(cache=False, processes=2)
    pool = WarmWorkerPool(max_workers=2)
    try:
        warm = exp.solve(cache=False, transport=pool)
    finally:
        pool.shutdown()

    # Same results out of both transports.
    for c, w in zip(cold, warm):
        assert c.scenario == w.scenario
        assert c.feasible == w.feasible
        if c.feasible:
            assert w.best == c.best

    report = run_suite(
        "dispatch_overhead", build_suite("dispatch_overhead"), repetitions=3, warmup=1
    )
    report.write(results_dir)

    cold_ws = report.workload("cold_pool")
    warm_ws = report.workload("warm_pool")
    speedup = cold_ws.median / warm_ws.median
    write_rows_csv(
        results_dir / "dispatch_overhead_speedup.csv",
        ("scenarios", "t_cold_s", "t_warm_s", "speedup"),
        [
            {
                "scenarios": len(scenarios),
                "t_cold_s": cold_ws.median,
                "t_warm_s": warm_ws.median,
                "speedup": speedup,
            }
        ],
    )

    # Conservative floor: warm dispatch must at least not lose to the
    # per-plan spawn cost.
    assert speedup > 1.0, f"warm pool only {speedup:.2f}x vs a fresh pool per plan"
