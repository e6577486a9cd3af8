"""2-D optimal-pair region maps ("phase diagrams").

The paper's figures vary one parameter at a time.  Downstream users
typically ask the two-dimensional question — e.g. *for which (C, lambda)
combinations does a different re-execution speed pay off?*  This module
solves BiCrit over a grid of two sweep axes and exposes the winning
speed pair and the two-speed savings per cell, from which the
"two speeds help here" region falls out directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import InvalidParameterError
from ..platforms.configuration import Configuration
from ..sweep.axes import SweepAxis
from .verbs import percent_savings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import ResultSet

__all__ = ["RegionMap", "map_regions"]


@dataclass(frozen=True)
class RegionMap:
    """Grid of BiCrit outcomes over two parameter axes.

    Array layout: index ``[i, j]`` corresponds to ``x_values[i]`` x
    ``y_values[j]``.  Infeasible cells hold NaN (and ``(nan, nan)``
    pairs).
    """

    config_name: str
    rho: float
    x_name: str
    y_name: str
    x_values: np.ndarray
    y_values: np.ndarray
    sigma1: np.ndarray = field(repr=False)
    sigma2: np.ndarray = field(repr=False)
    savings: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(len(x_values), len(y_values))``."""
        return (len(self.x_values), len(self.y_values))

    def feasible_mask(self) -> np.ndarray:
        """Cells where the two-speed problem is feasible."""
        return np.isfinite(self.sigma1)

    def two_speed_region(self, threshold: float = 0.01) -> np.ndarray:
        """Cells where using two different speeds saves > ``threshold`` %."""
        with np.errstate(invalid="ignore"):
            return self.savings > threshold

    def distinct_pairs(self) -> set[tuple[float, float]]:
        """The set of winning pairs over the feasible region."""
        out = set()
        mask = self.feasible_mask()
        for i, j in zip(*np.nonzero(mask)):
            out.add((float(self.sigma1[i, j]), float(self.sigma2[i, j])))
        return out

    def fraction_two_speed(self, threshold: float = 0.01) -> float:
        """Fraction of feasible cells where two speeds help (> threshold %)."""
        mask = self.feasible_mask()
        if not mask.any():
            return 0.0
        return float(self.two_speed_region(threshold)[mask].mean())


def map_regions(
    cfg: Configuration,
    rho: float,
    x_axis: SweepAxis,
    y_axis: SweepAxis,
) -> RegionMap:
    """Solve both problems over the full 2-D grid of two axes.

    The grid is one two-speed :class:`repro.api.Experiment` batch plus
    one single-speed batch; each cell equals a per-cell
    ``solve_bicrit`` / ``solve_single_speed`` pair.  Axes compose: the
    x-axis value is applied first, the y-axis second (ordering matters
    only if both touch the same parameter, which is rejected).

    Raises
    ------
    ValueError
        If the two axes address the same parameter.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> from repro.sweep.axes import checkpoint_axis, error_rate_axis
    >>> m = map_regions(get_configuration("hera-xscale"), 3.0,
    ...                 checkpoint_axis(n=4), error_rate_axis(n=4, hi=1e-4))
    >>> m.shape
    (4, 4)
    """
    if x_axis.name == y_axis.name:
        raise InvalidParameterError(f"both axes address {x_axis.name!r}")
    from ..api.experiment import Experiment
    from ..api.scenario import Scenario

    cells = [
        y_axis.apply(*x_axis.apply(cfg, rho, xv), yv)
        for xv in x_axis.values
        for yv in y_axis.values
    ]

    def solve(mode: str) -> "ResultSet":
        return Experiment.from_scenarios(
            (Scenario(config=c, rho=r, mode=mode) for c, r in cells),
            name=f"regions:{cfg.name}:{mode}",
        ).solve()

    two, one = solve("silent"), solve("single-speed")
    shape = (len(x_axis), len(y_axis))
    pairs = np.array(
        [p or (np.nan, np.nan) for p in two.speed_pairs()], dtype=float
    ).reshape(*shape, 2)
    savings = percent_savings(two.energy_overheads(), one.energy_overheads())
    return RegionMap(
        config_name=cfg.name,
        rho=rho,
        x_name=x_axis.name,
        y_name=y_axis.name,
        x_values=np.asarray(x_axis.values),
        y_values=np.asarray(y_axis.values),
        sigma1=pairs[..., 0],
        sigma2=pairs[..., 1],
        savings=savings.reshape(shape),
    )
