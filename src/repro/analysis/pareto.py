"""Bi-criteria Pareto frontier: energy vs time trade-off curve.

BiCrit fixes a time budget ``rho`` and minimises energy.  Sweeping
``rho`` traces the full Pareto frontier of the (time overhead, energy
overhead) bi-criteria problem — the curve a practitioner actually
negotiates against.  This module builds that frontier, verifies its
monotonicity, and locates the *knee* (the point of diminishing
returns) via the maximum-distance-to-chord rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.solution import PatternSolution
from ..platforms.configuration import Configuration
from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..errors.models import ArrivalProcess, ErrorModel
    from ..errors.combined import CombinedErrors
    from ..schedules.base import SpeedSchedule

__all__ = ["ParetoPoint", "ParetoFrontier", "pareto_frontier"]


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier point: the optimum at a given bound."""

    rho: float
    solution: PatternSolution

    @property
    def time_overhead(self) -> float:
        """Achieved (not just allowed) expected time per work unit."""
        return self.solution.time_overhead

    @property
    def energy_overhead(self) -> float:
        """Minimal expected energy per work unit at this bound."""
        return self.solution.energy_overhead


@dataclass(frozen=True)
class ParetoFrontier:
    """The energy-vs-time frontier of one configuration."""

    config_name: str
    points: tuple[ParetoPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def times(self) -> np.ndarray:
        """Achieved time overheads, one per frontier point."""
        return np.array([p.time_overhead for p in self.points])

    @property
    def energies(self) -> np.ndarray:
        """Energy overheads, one per frontier point."""
        return np.array([p.energy_overhead for p in self.points])

    def knee(self) -> ParetoPoint:
        """The maximum-distance-to-chord knee of the frontier.

        Normalises both axes to [0, 1], draws the chord between the
        frontier's endpoints, and returns the point farthest from it —
        the standard knee heuristic.  With fewer than 3 points the
        first point is returned.
        """
        if len(self.points) < 3:
            return self.points[0]
        t = self.times
        e = self.energies
        t_span = float(np.ptp(t)) or 1.0
        e_span = float(np.ptp(e)) or 1.0
        tn = (t - t.min()) / t_span
        en = (e - e.min()) / e_span
        p0 = np.array([tn[0], en[0]])
        p1 = np.array([tn[-1], en[-1]])
        chord = p1 - p0
        norm = np.hypot(*chord)
        if norm == 0.0:
            return self.points[0]
        # Perpendicular distance of each point to the chord.
        d = np.abs(chord[0] * (en - p0[1]) - chord[1] * (tn - p0[0])) / norm
        return self.points[int(np.argmax(d))]

    def dominates(self, time_overhead: float, energy_overhead: float) -> bool:
        """True if some frontier point weakly dominates the given point."""
        return bool(
            np.any((self.times <= time_overhead) & (self.energies <= energy_overhead))
        )


def pareto_frontier(
    cfg: Configuration,
    rho_lo: float | None = None,
    rho_hi: float = 10.0,
    n: int = 60,
    *,
    backend: str | None = None,
    schedule: "SpeedSchedule | str | None" = None,
    errors: "ErrorModel | ArrivalProcess | CombinedErrors | str | None" = None,
) -> ParetoFrontier:
    """Trace the Pareto frontier by sweeping the bound.

    ``rho_lo`` defaults to just above the configuration's minimum
    feasible bound.  Consecutive duplicate optima (same achieved time
    and energy — the unconstrained plateau at loose bounds) are
    collapsed, so the frontier contains only distinct trade-offs.

    .. note:: Legacy-shaped adapter.  The rho sweep compiles to one
       :class:`repro.api.Experiment` plan (deduplicated, solved in
       batched backend passes) and the curve is read off the
       ``.frontier(prune=False)`` verb — the legacy collapse rule, so
       the exponential two-speed output is byte-identical to the
       historical per-point loop.  ``backend`` forwards a registry name
       (the default ``firstorder`` already solves the whole frontier
       in one broadcast pass); optional ``schedule``/``errors`` trace the
       frontier under a per-attempt speed schedule and/or a renewal
       error model (impossible pre-pipeline), riding the batched
       ``schedule-grid`` kernel.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> fr = pareto_frontier(get_configuration("hera-xscale"), n=40)
    >>> import numpy as np
    >>> bool(np.all(np.diff(fr.energies) <= 1e-9))  # energy falls as time relaxes
    True
    """
    from ..core.feasibility import min_performance_bound_config

    if rho_lo is None:
        rho_lo = min_performance_bound_config(cfg) * 1.0001
    if not rho_lo < rho_hi:
        raise InvalidParameterError(f"need rho_lo < rho_hi, got [{rho_lo}, {rho_hi}]")

    from ..api.experiment import Experiment

    rhos = np.linspace(rho_lo, rho_hi, n)
    experiment = Experiment.over(
        configs=(cfg,),
        rhos=tuple(float(r) for r in rhos),
        schedules=(schedule,),
        error_models=(errors,),
        name=f"pareto:{cfg.name}",
    )
    frontier = experiment.solve(backend=backend).frontier(prune=False)
    points = tuple(
        ParetoPoint(rho=p.rho, solution=p.result.best) for p in frontier.points
    )
    return ParetoFrontier(config_name=cfg.name, points=points)
