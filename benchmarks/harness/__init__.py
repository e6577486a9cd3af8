"""The bench harness: repeated timed runs, ``BENCH_*.json``, one gate rule.

Run from the repository root::

    python -m benchmarks.harness list
    python -m benchmarks.harness run [SUITE ...] [--quick] [--reps N]
        [--out DIR] [--baseline-dir DIR]
    python -m benchmarks.harness compare BASELINE CURRENT

* :mod:`benchmarks.harness.report` — the estimators (median, bootstrap
  CI), :func:`~benchmarks.harness.report.run_suite`, the
  ``repro-bench/2`` report and the gate rule
  (:func:`~benchmarks.harness.report.compare_reports`, ``BOUND``);
* :mod:`benchmarks.harness.workloads` — the suites, full and
  ``--quick`` sizes, shared with the ``benchmarks/bench_*.py`` scripts;
* :mod:`benchmarks.harness.__main__` — the command line above.

The harness lives outside the shipped ``repro`` package: it measures
the program and is not part of it.
"""
