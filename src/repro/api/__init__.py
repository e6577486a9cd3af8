"""Unified solve API: declarative scenarios, pluggable backends, batches.

This package is the single front door to every solver in the library:

* :class:`~repro.api.scenario.Scenario` — a declarative problem spec
  (configuration + bound + error-model mode + optional restrictions);
* :mod:`~repro.api.backends` — the ``SolverBackend`` registry
  (``firstorder`` with its vectorised batch path, ``exact``,
  ``combined``, per-attempt ``schedule``, vectorised ``schedule-grid``);
* :class:`~repro.api.experiment.Experiment` — a batch of scenarios
  over a grid or a sweep axis, as a lazy, composable pipeline: fluent
  grid builders, an :class:`~repro.api.experiment.ExecutionPlan` that
  deduplicates and groups scenarios into batched backend calls,
  shard-parallel execution (optionally over worker processes) with
  cache-backed resume and progress callbacks, and analysis verbs
  (``.frontier()``, ``.savings()``, …) on the result;
* :class:`~repro.api.result.Result` / ``ResultSet`` — uniform outputs
  with provenance, a ``simulate()`` validation hook and conversions
  into the reporting layers;
* :mod:`~repro.api.cache` — per-scenario memoisation.

The legacy entry points (``solve_bicrit``, ``solve_bicrit_exact``,
``solve_bicrit_combined``, ``solve_single_speed``, ``run_sweep*``)
remain available as thin wrappers over this package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".scenario": ("MODES", "Scenario"),
    ".experiment": ("Experiment", "ExecutionPlan", "PlanGroup", "PlanProgress"),
    ".result": ("Result", "ResultSet", "Provenance"),
    ".backends": (
        "SolverBackend", "FirstOrderBackend", "ExactBackend", "ScheduleBackend",
        "ScheduleGridBackend", "register_backend", "get_backend", "available_backends",
    ),
    ".cache": ("SolveCache", "DEFAULT_CACHE", "clear_default_cache"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .backends import (
        ExactBackend, FirstOrderBackend, ScheduleBackend, ScheduleGridBackend, SolverBackend,
        available_backends, get_backend, register_backend,
    )
    from .cache import DEFAULT_CACHE, SolveCache, clear_default_cache
    from .experiment import ExecutionPlan, Experiment, PlanGroup, PlanProgress
    from .result import Provenance, Result, ResultSet
    from .scenario import MODES, Scenario
