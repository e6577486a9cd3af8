"""Section 5 extensions: fail-stop + silent errors, Theorem 2.

* :mod:`~repro.failstop.exact` — exact expectations with both sources
  (closed form derived from recursion (8); documents the Eq. (7) erratum);
* :mod:`~repro.failstop.firstorder` — Proposition 6 overheads;
* :mod:`~repro.failstop.validity` — first-order validity windows;
* :mod:`~repro.failstop.secondorder` — Proposition 7 and Theorem 2;
* :mod:`~repro.failstop.solver` — numeric BiCrit for arbitrary splits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".exact": (
        "expected_time", "expected_energy", "time_overhead", "energy_overhead",
        "expected_time_paper_eq7",
    ),
    ".firstorder": (
        "time_coefficients", "energy_coefficients", "time_overhead_fo", "energy_overhead_fo",
    ),
    ".validity": ("ValidityReport", "first_order_window", "check_first_order"),
    ".secondorder": (
        "second_order_coefficients", "second_order_time_overhead", "linear_coefficient_vanishes",
        "theorem2_work", "theorem2_overhead",
    ),
    ".solver": (
        "CombinedSolution", "solve_pair_combined", "solve_bicrit_combined", "time_optimal_work",
    ),
    ".theorem1": (
        "CombinedFirstOrderSolution", "min_performance_bound_combined", "optimal_work_combined_fo",
        "solve_bicrit_combined_fo",
    ),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .exact import (
        energy_overhead, expected_energy, expected_time, expected_time_paper_eq7, time_overhead,
    )
    from .firstorder import (
        energy_coefficients, energy_overhead_fo, time_coefficients, time_overhead_fo,
    )
    from .secondorder import (
        linear_coefficient_vanishes, second_order_coefficients, second_order_time_overhead,
        theorem2_overhead, theorem2_work,
    )
    from .solver import (
        CombinedSolution, solve_bicrit_combined, solve_pair_combined, time_optimal_work,
    )
    from .theorem1 import (
        CombinedFirstOrderSolution, min_performance_bound_combined, optimal_work_combined_fo,
        solve_bicrit_combined_fo,
    )
    from .validity import ValidityReport, check_first_order, first_order_window
