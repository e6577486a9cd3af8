"""The paper's primary contribution: BiCrit under silent errors.

Layout mirrors Section 3 of the paper:

* :mod:`~repro.core.exact` — Propositions 1-3 (exact expectations);
* :mod:`~repro.core.firstorder` — Equations (2)/(3) (Taylor overheads);
* :mod:`~repro.core.feasibility` — the Theorem-1 quadratic and Eq. (6);
* :mod:`~repro.core.optimum` — Equations (4)/(5);
* :mod:`~repro.core.solver` — the O(K^2) enumeration;
* :mod:`~repro.core.singlespeed` — the one-speed baseline;
* :mod:`~repro.core.youngdaly` — classical reference formulas;
* :mod:`~repro.core.numeric` — exact-expression numeric cross-check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".pattern": ("Pattern",),
    ".exact": (
        "expected_time", "expected_time_single_speed", "expected_energy", "expected_reexecutions",
        "time_overhead", "energy_overhead",
    ),
    ".firstorder": (
        "OverheadCoefficients", "time_coefficients", "energy_coefficients", "time_overhead_fo",
        "energy_overhead_fo",
    ),
    ".feasibility": (
        "QuadraticCoefficients", "feasibility_quadratic", "feasible_interval",
        "min_performance_bound", "min_performance_bound_config",
    ),
    ".optimum": ("energy_optimal_work", "optimal_work", "clamp_to_interval"),
    ".solution": ("PatternSolution", "CandidateOutcome", "BiCritSolution"),
    ".solver": ("evaluate_pair", "solve_bicrit"),
    ".singlespeed": ("evaluate_single_speed", "solve_single_speed"),
    ".youngdaly": ("period_failstop", "period_silent", "work_failstop", "work_silent"),
    ".numeric": ("ExactSolution", "solve_pair_exact", "solve_bicrit_exact"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .exact import (
        energy_overhead, expected_energy, expected_reexecutions, expected_time,
        expected_time_single_speed, time_overhead,
    )
    from .feasibility import (
        QuadraticCoefficients, feasibility_quadratic, feasible_interval, min_performance_bound,
        min_performance_bound_config,
    )
    from .firstorder import (
        OverheadCoefficients, energy_coefficients, energy_overhead_fo, time_coefficients,
        time_overhead_fo,
    )
    from .numeric import ExactSolution, solve_bicrit_exact, solve_pair_exact
    from .optimum import clamp_to_interval, energy_optimal_work, optimal_work
    from .pattern import Pattern
    from .singlespeed import evaluate_single_speed, solve_single_speed
    from .solution import BiCritSolution, CandidateOutcome, PatternSolution
    from .solver import evaluate_pair, solve_bicrit
    from .youngdaly import period_failstop, period_silent, work_failstop, work_silent
