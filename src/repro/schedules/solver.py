"""Constrained pattern-size optimisation for a general speed schedule.

The BiCrit problem for a *fixed* schedule: minimise the exact expected
energy per work unit subject to the exact expected time per work unit
staying below ``rho``.  The schedule pins every attempt speed, so the
only free variable is the pattern size ``W`` — the same
minimise/bracket/minimise scheme as :mod:`repro.core.numeric` and
:mod:`repro.failstop.solver`, applied to the schedule evaluator:

1. minimise ``T(W)/W`` (coercive: ``C/W -> inf`` as ``W -> 0``, the
   re-execution tail diverges as ``W -> inf``); if the minimum exceeds
   ``rho`` the schedule is infeasible under that bound;
2. bracket the two ``T(W)/W = rho`` crossings with Brent root finding
   to get the feasible interval ``[W1, W2]``;
3. minimise ``E(W)/W`` on ``[W1, W2]`` (interior optimum + end points).

For schedules whose attempt map is expressible as a two-speed pair the
scalar ``schedule`` backend never reaches this module — it routes them
through the Theorem-1 closed form (silent) or the Section-5 pair solver
(combined), byte-identical to the legacy paths.  The ``schedule-grid``
default keeps only the silent closed form; its combined two-speed rows
are grid rows, pinned to that pair solver within tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from dataclasses import dataclass

import numpy as np

from ..core.numeric import minimize_unimodal
from ..errors.models import ErrorModelLike, as_error_model
from ..exceptions import ConvergenceError, InfeasibleBoundError
from ..platforms.configuration import Configuration
from ..quantities import require_positive
from .base import SpeedSchedule
from .evaluator import energy_overhead_schedule, time_overhead_schedule

__all__ = ["ScheduleSolution", "solve_schedule", "schedule_min_bound"]

_W_LO = 1e-3


@dataclass(frozen=True)
class ScheduleSolution:
    """Constrained optimum of one schedule under a performance bound.

    Exposes the uniform candidate surface (``sigma1``, ``sigma2``,
    ``work``, ``energy_overhead``, ``time_overhead``) shared by every
    backend payload, with the first two derived from the schedule's
    attempt map (``sigma2`` is the second-attempt speed; later attempts
    may differ — read ``schedule`` for the full policy).
    """

    schedule: SpeedSchedule
    work: float
    energy_overhead: float
    time_overhead: float
    interval: tuple[float, float]
    failstop_fraction: float = 0.0

    @property
    def sigma1(self) -> float:
        """First-attempt speed (uniform accessor)."""
        return self.schedule.speed_for_attempt(1)

    @property
    def sigma2(self) -> float:
        """Second-attempt (first re-execution) speed (uniform accessor)."""
        return self.schedule.speed_for_attempt(2)

    @property
    def speed_pair(self) -> tuple[float, float]:
        """``(sigma1, sigma2)`` of the first two attempts."""
        return (self.sigma1, self.sigma2)


def _overhead_fns(
    cfg: Configuration, errors: ErrorModelLike, schedule: SpeedSchedule
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    errors = as_error_model(errors)

    def t_over(w: float) -> float:
        with np.errstate(over="ignore"):
            return float(time_overhead_schedule(cfg, schedule, w, errors=errors))

    def e_over(w: float) -> float:
        with np.errstate(over="ignore"):
            return float(energy_overhead_schedule(cfg, schedule, w, errors=errors))

    return t_over, e_over


def schedule_min_bound(
    cfg: Configuration,
    schedule: SpeedSchedule,
    errors: ErrorModelLike = None,
) -> float:
    """The smallest feasible ``rho`` for this schedule (Eq.-6 analogue).

    Below this value :func:`solve_schedule` returns ``None``; the
    ``schedule`` backend reports it as the ``rho_min`` diagnostic of an
    :class:`~repro.exceptions.InfeasibleBoundError`.
    """
    t_over, _ = _overhead_fns(cfg, errors, schedule)
    _, t_min = minimize_unimodal(t_over)
    return t_min


def solve_schedule(
    cfg: Configuration,
    schedule: SpeedSchedule,
    rho: float,
    errors: ErrorModelLike = None,
) -> ScheduleSolution:
    """Exact constrained optimum for one schedule.

    ``errors=None`` means silent-only at the configuration's rate.  The
    analogue of :func:`repro.core.numeric.solve_pair_exact` /
    :func:`repro.failstop.solver.solve_pair_combined` with the pair
    replaced by a full per-attempt schedule.

    Raises
    ------
    InfeasibleBoundError
        When the schedule cannot meet ``rho`` at any pattern size; the
        schedule's minimal feasible bound (already computed by the
        time minimisation) rides along as ``rho_min``.
    """
    from scipy.optimize import brentq, minimize_scalar

    require_positive(rho, "rho")
    t_over, e_over = _overhead_fns(cfg, errors, schedule)

    w_star, t_min = minimize_unimodal(t_over)
    if t_min > rho:
        raise InfeasibleBoundError(rho, t_min)

    def shifted(w: float) -> float:
        v = t_over(w) - rho
        return v if math.isfinite(v) else 1e300

    lo = _W_LO
    if shifted(lo) <= 0:
        w1 = lo
    else:
        w1 = float(brentq(shifted, lo, w_star, xtol=1e-9, rtol=1e-12))
    hi = w_star
    while shifted(hi) <= 0:
        hi *= 2.0
        if hi > 1e15:  # pragma: no cover - unreachable for valid configs
            raise ConvergenceError("failed to bracket the right feasibility crossing")
    w2 = float(brentq(shifted, w_star, hi, xtol=1e-9, rtol=1e-12))

    res = minimize_scalar(
        e_over, bounds=(w1, w2), method="bounded", options={"xatol": 1e-9 * max(w2, 1.0)}
    )
    cands = [(float(res.x), float(res.fun)), (w1, e_over(w1)), (w2, e_over(w2))]
    work, energy = min(cands, key=lambda p: p[1])
    fraction = errors.failstop_fraction if errors is not None else 0.0
    return ScheduleSolution(
        schedule=schedule,
        work=work,
        energy_overhead=energy,
        time_overhead=t_over(work),
        interval=(w1, w2),
        failstop_fraction=fraction,
    )
