"""Fail-stop-fraction sweeps — the Section-5 study the paper leaves open.

Section 5 parameterises the error mix by the fail-stop fraction ``f``
but only analyses limiting cases (the first-order validity window, the
``f = 1`` Theorem 2).  Solved numerically (``combined``-mode scenarios
on the ``schedule-grid`` kernel) the *full* curve "optimal solution vs
``f``" is computable; this module sweeps it, producing the natural
companion figure to the paper's future-work section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..platforms.configuration import Configuration
from ..schedules.solver import ScheduleSolution

__all__ = ["FractionSweep", "sweep_failstop_fraction"]


@dataclass(frozen=True)
class FractionSweep:
    """Optimal combined-error solutions across fail-stop fractions."""

    config_name: str
    rho: float
    total_rate: float
    fractions: np.ndarray
    solutions: tuple[ScheduleSolution | None, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.fractions)

    def _get(self, attr: str) -> np.ndarray:
        return np.array(
            [getattr(s, attr) if s is not None else np.nan for s in self.solutions]
        )

    def sigma1(self) -> np.ndarray:
        """Optimal first speed per fraction (NaN where infeasible)."""
        return self._get("sigma1")

    def sigma2(self) -> np.ndarray:
        """Optimal re-execution speed per fraction."""
        return self._get("sigma2")

    def work(self) -> np.ndarray:
        """Optimal pattern size per fraction."""
        return self._get("work")

    def energy_overhead(self) -> np.ndarray:
        """Optimal energy overhead per fraction."""
        return self._get("energy_overhead")

    def time_overhead(self) -> np.ndarray:
        """Achieved time overhead per fraction."""
        return self._get("time_overhead")


def sweep_failstop_fraction(
    cfg: Configuration,
    rho: float,
    *,
    total_rate: float | None = None,
    fractions: np.ndarray | None = None,
    processes: int | None = None,
) -> FractionSweep:
    """Solve the combined-error BiCrit across fail-stop fractions.

    ``total_rate`` defaults to the configuration's own rate; ``fractions``
    defaults to 11 points over [0, 1].  Infeasible fractions (none, for
    sane bounds — feasibility barely depends on ``f``) yield ``None``
    entries.

    .. note:: Legacy-shaped wrapper.  Builds one ``combined``-mode
       :class:`repro.api.Scenario` per fraction and compiles them into
       a :class:`repro.api.Experiment` plan — which deduplicates
       repeated fractions, memoises repeated sweeps and solves every
       fraction's pair enumeration in one ``schedule-grid`` pass
       (``processes > 1`` shards that batch over worker processes).

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> sw = sweep_failstop_fraction(get_configuration("hera-xscale"), 3.0)
    >>> len(sw)
    11
    """
    from ..api.experiment import Experiment
    from ..api.scenario import Scenario

    if total_rate is None:
        total_rate = cfg.lam
    if fractions is None:
        fractions = np.linspace(0.0, 1.0, 11)
    fractions = np.asarray(fractions, dtype=float)

    experiment = Experiment.from_scenarios(
        (
            Scenario(
                config=cfg,
                rho=rho,
                mode="combined",
                failstop_fraction=float(f),
                error_rate=total_rate,
                label=f"f={f:g}",
            )
            for f in fractions
        ),
        name=f"failstop-fraction:{cfg.name}",
    )
    results = experiment.solve(processes=processes)
    return FractionSweep(
        config_name=cfg.name,
        rho=rho,
        total_rate=total_rate,
        fractions=fractions,
        solutions=tuple(r.raw if r.feasible else None for r in results),
    )
