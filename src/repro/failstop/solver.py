"""Numeric BiCrit with both error sources (the paper's open problem).

Section 5 of the paper stops at: "we are no longer able to provide a
general closed-form solution" once fail-stop errors enter and
``sigma2/sigma1`` leaves the first-order validity window.  This module
closes the loop *numerically*: the exact expectations of
:mod:`repro.failstop.exact` are perfectly well-defined for every speed
pair, so we apply the same minimise/bracket/minimise scheme as
:mod:`repro.core.numeric` to them.

The result is a drop-in analogue of :func:`repro.core.solver.solve_bicrit`
for an arbitrary fail-stop/silent split — including the regimes the
first-order analysis cannot reach (e.g. ``sigma2 > 2 sigma1 (1 + s/f)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors.combined import CombinedErrors
from ..errors.models import require_memoryless
from ..exceptions import ConvergenceError
from ..platforms.configuration import Configuration
from ..quantities import require_positive
from ..core.numeric import minimize_unimodal
from ..schedules.solver import ScheduleSolution
from . import exact

__all__ = ["CombinedSolution", "solve_pair_combined", "solve_bicrit_combined", "time_optimal_work"]

_W_LO = 1e-3


@dataclass(frozen=True)
class CombinedSolution:
    """Numeric BiCrit solution with both error sources."""

    sigma1: float
    sigma2: float
    work: float
    energy_overhead: float
    time_overhead: float
    interval: tuple[float, float]
    failstop_fraction: float


def _feasible_interval(
    cfg: Configuration,
    errors: CombinedErrors,
    sigma1: float,
    sigma2: float,
    rho: float,
) -> tuple[float, float] | None:
    from scipy.optimize import brentq

    def t_over(w: float) -> float:
        with np.errstate(over="ignore"):
            return float(exact.time_overhead(cfg, errors, w, sigma1, sigma2))

    w_star, t_min = minimize_unimodal(t_over)
    if t_min > rho:
        return None

    def shifted(w: float) -> float:
        v = t_over(w) - rho
        return v if math.isfinite(v) else 1e300

    lo = _W_LO
    w1 = lo if shifted(lo) <= 0 else float(brentq(shifted, lo, w_star, xtol=1e-9, rtol=1e-12))
    hi = w_star
    while shifted(hi) <= 0:
        hi *= 2.0
        if hi > 1e15:  # pragma: no cover
            raise ConvergenceError("failed to bracket the right feasibility crossing")
    w2 = float(brentq(shifted, w_star, hi, xtol=1e-9, rtol=1e-12))
    return (w1, w2)


def time_optimal_work(
    cfg: Configuration,
    errors: CombinedErrors,
    sigma1: float,
    sigma2: float | None = None,
) -> float:
    """The *time*-overhead-minimising pattern size on the exact model.

    The classical mono-criterion problem (minimise expected makespan).
    This is the quantity Theorem 2 characterises as
    ``(12C/lambda^2)^{1/3} sigma`` when ``f = 1, V = 0, sigma2 = 2 sigma1``;
    the Theorem-2 bench compares this exact optimum against the formula.
    """
    errors = require_memoryless(errors, "repro.failstop.solver.time_optimal_work")
    if sigma2 is None:
        sigma2 = sigma1

    def t_over(w: float) -> float:
        with np.errstate(over="ignore"):
            return float(exact.time_overhead(cfg, errors, w, sigma1, sigma2))

    w_star, _ = minimize_unimodal(t_over)
    return w_star


def solve_pair_combined(
    cfg: Configuration,
    errors: CombinedErrors,
    sigma1: float,
    sigma2: float,
    rho: float,
) -> CombinedSolution | None:
    """Exact constrained optimum for one speed pair (``None`` = infeasible).

    Memoryless only (the exact closed forms it optimises are
    exponential); renewal models raise
    :class:`~repro.exceptions.UnsupportedErrorModelError` — route them
    through :func:`repro.schedules.solver.solve_schedule` with a
    ``TwoSpeed`` schedule instead (the ``schedule``/``schedule-grid``
    backends do this automatically).
    """
    from scipy.optimize import minimize_scalar

    errors = require_memoryless(errors, "repro.failstop.solver.solve_pair_combined")
    require_positive(rho, "rho")
    interval = _feasible_interval(cfg, errors, sigma1, sigma2, rho)
    if interval is None:
        return None
    w1, w2 = interval

    def e_over(w: float) -> float:
        with np.errstate(over="ignore"):
            return float(exact.energy_overhead(cfg, errors, w, sigma1, sigma2))

    res = minimize_scalar(
        e_over, bounds=(w1, w2), method="bounded", options={"xatol": 1e-9 * max(w2, 1.0)}
    )
    cands = [(float(res.x), float(res.fun)), (w1, e_over(w1)), (w2, e_over(w2))]
    work, energy = min(cands, key=lambda p: p[1])
    return CombinedSolution(
        sigma1=sigma1,
        sigma2=sigma2,
        work=work,
        energy_overhead=energy,
        time_overhead=float(exact.time_overhead(cfg, errors, work, sigma1, sigma2)),
        interval=(w1, w2),
        failstop_fraction=errors.failstop_fraction,
    )


def solve_bicrit_combined(
    cfg: Configuration,
    errors: CombinedErrors,
    rho: float,
) -> ScheduleSolution:
    """Numeric BiCrit over all speed pairs with both error sources.

    .. note:: Legacy wrapper.  Delegates to the default route of the
       :mod:`repro.api` registry (``schedule-grid``) via
       ``Scenario(..., mode="combined").solve()``, so the winner is the
       grid kernel's ``ScheduleSolution`` of a ``TwoSpeed`` pair; prefer
       the :class:`repro.Scenario` API in new code.
       :func:`solve_pair_combined` stays the scalar oracle of that route.

    Raises
    ------
    InfeasibleBoundError
        When no pair can meet ``rho`` on the exact model.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> from repro.errors import CombinedErrors
    >>> cfg = get_configuration("hera-xscale")
    >>> sol = solve_bicrit_combined(cfg, CombinedErrors(cfg.lam, 0.5), rho=3.0)
    >>> sol.sigma1 in cfg.speeds and sol.sigma2 in cfg.speeds
    True
    """
    from ..api.scenario import Scenario

    # A renewal ErrorModel also exposes failstop_fraction/total_rate, so
    # without this guard it would silently decompose into exponential
    # rates below; collapse memoryless models, reject the rest (RPR002).
    errors = require_memoryless(errors, "repro.failstop.solver.solve_bicrit_combined")
    return Scenario(
        config=cfg,
        rho=rho,
        mode="combined",
        failstop_fraction=errors.failstop_fraction,
        error_rate=errors.total_rate,
    ).solve().raw
