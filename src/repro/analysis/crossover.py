"""Crossover analysis: which speed pair wins over which ``rho`` range?

The paper observes that "it is possible, for a well-chosen rho, to have
almost any speed pair as the optimal solution" (Section 4.2):
:func:`optimal_pairs_by_rho` maps each speed pair to the ``rho`` ranges
where it wins, making that statement checkable.  The switches along any
sweep ("the execution speeds are adapted — first sigma2 and then
sigma1", Section 4.3.1) are the ``ResultSet.crossover()`` verb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..platforms.configuration import Configuration

__all__ = ["optimal_pairs_by_rho", "PairInterval"]


@dataclass(frozen=True)
class PairInterval:
    """A maximal ``rho`` interval where one speed pair is optimal."""

    pair: tuple[float, float]
    rho_min: float
    rho_max: float


def optimal_pairs_by_rho(
    cfg: Configuration,
    rho_lo: float = 1.0,
    rho_hi: float = 10.0,
    n: int = 400,
) -> tuple[PairInterval, ...]:
    """Scan ``rho`` and return the maximal intervals per winning pair.

    Infeasible bounds produce no interval.  The scan is grid-based: the
    reported interval ends are grid values, accurate to the grid step
    (``(rho_hi - rho_lo) / (n - 1)``).

    The whole rho grid is one :class:`repro.api.Experiment` batch and
    the interval scan reads the ``.crossover()`` verb's per-point
    winners — the pairs a per-point ``solve_bicrit`` loop finds.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> iv = optimal_pairs_by_rho(get_configuration("hera-xscale"), 1.2, 9.0, 80)
    >>> len({i.pair for i in iv}) >= 3   # several distinct winners
    True
    """
    from ..api.experiment import Experiment

    grid = np.linspace(rho_lo, rho_hi, n)
    results = Experiment.over(
        configs=(cfg,),
        rhos=tuple(float(r) for r in grid),
        name=f"pairs-by-rho:{cfg.name}",
    ).solve()
    pairs = results.crossover(values=grid).pairs
    intervals: list[PairInterval] = []
    current_pair: tuple[float, float] | None = None
    start = None
    prev = None
    for rho, pair in zip(grid, pairs):
        if pair != current_pair:
            if current_pair is not None:
                intervals.append(
                    PairInterval(pair=current_pair, rho_min=float(start), rho_max=float(prev))
                )
            current_pair = pair
            start = rho
        prev = rho
    if current_pair is not None:
        intervals.append(
            PairInterval(pair=current_pair, rho_min=float(start), rho_max=float(prev))
        )
    return tuple(intervals)
