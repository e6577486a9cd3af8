"""Sweep runner: solve BiCrit (two-speed and one-speed) along an axis.

For every axis value the runner solves both the full two-speed problem
and the single-speed baseline, yielding exactly the three series each
paper figure plots:

1. the optimal speeds (``sigma1``, ``sigma2``, and the one-speed
   ``sigma``);
2. the optimal pattern sizes ``Wopt(sigma1, sigma2)`` and
   ``Wopt(sigma, sigma)``;
3. the energy overheads ``E(Wopt,.)/Wopt`` for both solvers.

Infeasible points (e.g. ``rho`` below the minimum feasible bound in the
``rho`` sweep) are kept as ``None`` entries so the series aligns with
the axis values; the array accessors encode them as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.solution import PatternSolution
from ..platforms.configuration import Configuration
from .axes import SweepAxis

__all__ = ["SweepPoint", "SweepSeries", "run_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """Both solver outcomes at one axis value (``None`` = infeasible)."""

    value: float
    two_speed: PatternSolution | None
    single_speed: PatternSolution | None


@dataclass(frozen=True)
class SweepSeries:
    """The full figure data: one :class:`SweepPoint` per axis value.

    Array accessors return NaN at infeasible points, which keeps the
    series plot-ready and comparison-friendly (NaN-propagating).
    """

    config_name: str
    axis_name: str
    axis_label: str
    rho: float
    points: tuple[SweepPoint, ...] = field(repr=False)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    @property
    def values(self) -> np.ndarray:
        """The axis values."""
        return np.array([p.value for p in self.points])

    def _two(self, attr: str) -> np.ndarray:
        return np.array(
            [getattr(p.two_speed, attr) if p.two_speed else np.nan for p in self.points]
        )

    def _one(self, attr: str) -> np.ndarray:
        return np.array(
            [
                getattr(p.single_speed, attr) if p.single_speed else np.nan
                for p in self.points
            ]
        )

    # -- speed panel ----------------------------------------------------
    def sigma1(self) -> np.ndarray:
        """Two-speed optimal first speed per value."""
        return self._two("sigma1")

    def sigma2(self) -> np.ndarray:
        """Two-speed optimal re-execution speed per value."""
        return self._two("sigma2")

    def sigma_single(self) -> np.ndarray:
        """One-speed optimal speed per value."""
        return self._one("sigma1")

    # -- pattern-size panel ----------------------------------------------
    def work_two(self) -> np.ndarray:
        """``Wopt(sigma1, sigma2)`` per value."""
        return self._two("work")

    def work_single(self) -> np.ndarray:
        """``Wopt(sigma, sigma)`` per value."""
        return self._one("work")

    # -- energy panel ----------------------------------------------------
    def energy_two(self) -> np.ndarray:
        """Two-speed energy overhead per value."""
        return self._two("energy_overhead")

    def energy_single(self) -> np.ndarray:
        """One-speed energy overhead per value."""
        return self._one("energy_overhead")

    # ------------------------------------------------------------------
    def feasible_mask(self) -> np.ndarray:
        """Boolean mask of values where the two-speed problem is feasible."""
        return np.array([p.two_speed is not None for p in self.points])

    def speed_pairs(self) -> list[tuple[float, float] | None]:
        """The optimal ``(sigma1, sigma2)`` per value (``None`` = infeasible)."""
        return [
            (p.two_speed.sigma1, p.two_speed.sigma2) if p.two_speed else None
            for p in self.points
        ]


def run_sweep(
    cfg: Configuration,
    rho: float,
    axis: SweepAxis,
    *,
    backend: str | None = None,
) -> SweepSeries:
    """Solve both problems at every value of ``axis``.

    .. note:: Legacy wrapper.  Delegates to
       ``repro.api.Experiment.over_axis(...).solve()``, compiling the
       two-speed and single-speed scenarios of every axis value into
       one deduplicated plan through the backend registry.  ``backend``
       forwards a registry name; ``None`` routes every scenario to
       ``firstorder``, whose batch path solves the whole axis in
       vectorised passes (``"grid"`` is an alias of it).

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> from repro.sweep.axes import checkpoint_axis
    >>> s = run_sweep(get_configuration("atlas-crusoe"), 3.0, checkpoint_axis(n=5))
    >>> len(s)
    5
    """
    from ..api.experiment import Experiment

    experiment = Experiment.over_axis(cfg, rho, axis, modes=("silent", "single-speed"))
    results = experiment.solve(backend=backend)
    points: list[SweepPoint] = []
    for i, value in enumerate(axis.values):
        points.append(
            SweepPoint(
                value=value,
                two_speed=results[2 * i].best,
                single_speed=results[2 * i + 1].best,
            )
        )
    return SweepSeries(
        config_name=cfg.name,
        axis_name=axis.name,
        axis_label=axis.label,
        rho=rho,
        points=tuple(points),
    )
