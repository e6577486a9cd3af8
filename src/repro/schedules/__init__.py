"""Speed schedules: per-attempt re-execution speed policies.

The first-class generalisation of the paper's ``(sigma1, sigma2)``
model: a :class:`SpeedSchedule` maps the attempt index to the DVFS
speed of that attempt, with concrete policies (:class:`TwoSpeed`,
:class:`Constant`, :class:`Escalating`, :class:`Geometric`), an exact
expectation evaluator for arbitrary schedules
(:mod:`repro.schedules.evaluator`), a numeric constrained solver
(:mod:`repro.schedules.solver`), and a vectorised batch kernel that
evaluates/solves whole schedule grids in broadcast NumPy ops
(:mod:`repro.schedules.vectorized`).  The ``schedule`` and
``schedule-grid`` backends of :mod:`repro.api` plug all of this into
``Scenario(schedule=...)`` and ``Experiment`` batches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".base": (
        "SpeedSchedule", "TwoSpeed", "Constant", "Escalating", "Geometric", "parse_schedule",
        "schedule_from_dict", "schedule_kinds", "as_schedule",
    ),
    ".evaluator": (
        "ScheduleExpectation", "evaluate_schedule", "expected_time_schedule",
        "expected_energy_schedule", "expected_reexecutions_schedule", "time_overhead_schedule",
        "energy_overhead_schedule",
    ),
    ".solver": ("ScheduleSolution", "solve_schedule", "schedule_min_bound"),
    ".vectorized": (
        "ScheduleGrid", "ScheduleGridSolution", "SolverOptions", "DEFAULT_SOLVER_OPTIONS",
        "evaluate_schedule_batch", "solve_schedule_batch", "solve_schedule_grid",
    ),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .base import (
        Constant, Escalating, Geometric, SpeedSchedule, TwoSpeed, as_schedule, parse_schedule,
        schedule_from_dict, schedule_kinds,
    )
    from .evaluator import (
        ScheduleExpectation, energy_overhead_schedule, evaluate_schedule, expected_energy_schedule,
        expected_reexecutions_schedule, expected_time_schedule, time_overhead_schedule,
    )
    from .solver import ScheduleSolution, schedule_min_bound, solve_schedule
    from .vectorized import (
        DEFAULT_SOLVER_OPTIONS, ScheduleGrid, ScheduleGridSolution, SolverOptions,
        evaluate_schedule_batch, solve_schedule_batch, solve_schedule_grid,
    )
