"""Bench: the batched Theorem-1 path vs the per-scenario scalar loop.

The api_redesign's headline perf claim, measured through the bench
harness (:mod:`benchmarks.harness`: host-adjusted median wall times
over repeated runs, bootstrap CIs): a
full catalog x rho ``Experiment`` solved through ``backend="grid"``
(the alias of ``firstorder``, whose batch path is one broadcast NumPy
pass per pair axis) must beat the same grid solved scenario by
scenario, one standalone scalar ``firstorder`` enumeration each.
Caching is disabled on both sides so the comparison measures solving,
not memoisation.  The grid is shared with ``python -m benchmarks.harness``
via :func:`benchmarks.harness.workloads.build_suite`; the full report lands in
``results/BENCH_study_batch.json`` and the legacy one-row summary in
``results/study_batch_speedup.csv``.
"""

from __future__ import annotations

import time

from benchmarks.harness.report import run_suite
from benchmarks.harness.workloads import build_suite, study_batch_loop, study_batch_study
from repro.reporting.csvio import write_rows_csv


def test_grid_backend_vs_scenario_loop(results_dir):
    """Measure both paths, pin their equivalence, record the speedup."""
    study = study_batch_study()
    assert len(study) == 184

    loop_results = study_batch_loop(study)
    grid_results = study.solve(backend="grid", cache=False)

    # Same bests out of both paths (byte-identical PatternSolutions).
    for lo, gr in zip(loop_results, grid_results):
        assert (lo is not None) == gr.feasible
        if lo is not None:
            assert gr.best == lo.best

    report = run_suite("study_batch", build_suite("study_batch"), repetitions=3, warmup=0)
    report.write(results_dir)

    loop_ws = report.workload("firstorder_loop")
    grid_ws = report.workload("grid_backend")
    speedup = loop_ws.median / grid_ws.median
    write_rows_csv(
        results_dir / "study_batch_speedup.csv",
        ("scenarios", "t_loop_s", "t_grid_s", "speedup"),
        [
            {
                "scenarios": len(study),
                "t_loop_s": loop_ws.median,
                "t_grid_s": grid_ws.median,
                "speedup": speedup,
            }
        ],
    )

    # "Measurably faster": conservative floor, typically >10x.
    assert speedup > 3.0, f"grid backend only {speedup:.1f}x faster than the loop"


def test_study_cache_replay(results_dir):
    """Second solve of the same grid must be pure cache replay."""
    from repro.api import SolveCache

    study = study_batch_study()
    cache = SolveCache()
    study.solve(backend="grid", cache=cache)  # prime

    t0 = time.perf_counter()
    results = study.solve(backend="grid", cache=cache)
    replay_s = time.perf_counter() - t0
    assert results.cache_hits() == len(study)
    assert results.total_wall_time() == 0.0
    # Replay is bookkeeping only; generous wall-clock ceiling.
    assert replay_s < 5.0
