"""Energy savings of the two-speed solution over the one-speed baseline.

The paper's headline claim: "up to 35% of the energy consumption can be
saved by using a different re-execution speed while meeting a prescribed
performance constraint" (Section 4.3.5, observed on the Atlas/Crusoe
checkpoint-cost sweep).  :func:`summarize_savings` locates the maximum
along one sweep series with the same NaN-propagating per-point rule as
the ``ResultSet.savings`` verb (:func:`~repro.analysis.verbs.percent_savings`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sweep.runner import SweepSeries
from .verbs import percent_savings
from ..exceptions import InvalidParameterError

__all__ = ["SavingsSummary", "summarize_savings"]


@dataclass(frozen=True)
class SavingsSummary:
    """Summary of the savings along one sweep series."""

    config_name: str
    axis_name: str
    max_savings_percent: float
    argmax_value: float
    mean_savings_percent: float
    num_points_with_savings: int

    @property
    def any_savings(self) -> bool:
        """True when at least one sweep point saves energy (> 0.01%)."""
        return self.num_points_with_savings > 0


def summarize_savings(series: SweepSeries, *, threshold: float = 0.01) -> SavingsSummary:
    """Summarise two-speed savings along a sweep series.

    ``threshold`` (percent) filters numeric dust when counting points
    with genuine savings.

    Raises
    ------
    ValueError
        If no sweep point is feasible for both solvers (nothing to
        compare).
    """
    s = percent_savings(series.energy_two(), series.energy_single())
    finite = np.isfinite(s)
    if not finite.any():
        raise InvalidParameterError("no sweep point is feasible for both solvers")
    values = series.values
    sf = np.where(finite, s, -np.inf)
    k = int(np.argmax(sf))
    return SavingsSummary(
        config_name=series.config_name,
        axis_name=series.axis_name,
        max_savings_percent=float(s[k]),
        argmax_value=float(values[k]),
        mean_savings_percent=float(np.mean(s[finite])),
        num_points_with_savings=int(np.sum(s[finite] > threshold)),
    )
