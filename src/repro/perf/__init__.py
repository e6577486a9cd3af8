"""Statistically rigorous performance measurement (``BENCH_*.json``).

The repo's speedup claims used to live in ad-hoc single-run CSVs — one
wall-clock sample, no confidence interval, no regression gate.  This
package adopts the reporting discipline of Touati et al., *Towards a
Statistical Methodology to Evaluate Program Speedups*: repeated runs,
**median** wall times, **bootstrap confidence intervals**, and an
explicit **CI-overlap test** before calling anything a win or a
regression.

* :mod:`repro.perf.stats` — the estimators: medians, percentile
  bootstrap CIs for medians and ratios-of-medians, interval overlap;
* :mod:`repro.perf.runner` — :class:`BenchRunner` runs named
  :class:`~repro.perf.workloads.Workload` callables (warmup + N
  repetitions) and emits a :class:`BenchReport`, serialised as
  ``BENCH_<name>.json``;
* :mod:`repro.perf.workloads` — the shared workload suites wrapping
  the ``benchmarks/bench_*.py`` grids (full and ``--quick`` sizes), so
  the bench scripts, the ``repro bench`` CLI and the CI smoke job all
  measure the same code;
* :mod:`repro.perf.compare` — loads two reports and classifies each
  workload as regression / improvement / indistinguishable using CI
  overlap rather than point estimates (the CI gate compares the
  dimensionless *speedup* columns, so a committed baseline from one
  machine remains meaningful on another).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".runner": ("BenchRunner", "BenchReport", "WorkloadStats"),
    ".workloads": ("Workload", "build_suite", "suite_names"),
    ".compare": ("BenchComparison", "WorkloadComparison", "compare_reports"),
    ".stats": ("median", "bootstrap_median_ci", "bootstrap_speedup_ci", "intervals_overlap"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .compare import BenchComparison, WorkloadComparison, compare_reports
    from .runner import BenchReport, BenchRunner, WorkloadStats
    from .stats import bootstrap_median_ci, bootstrap_speedup_ci, intervals_overlap, median
    from .workloads import Workload, build_suite, suite_names
