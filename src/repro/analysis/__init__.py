"""Derived analyses: savings, crossovers, scaling, regions, breakdown.

Every analysis is a *verb* on a solved
:class:`~repro.api.result.ResultSet` (:mod:`repro.analysis.verbs`):
``frontier``, ``savings``, ``sensitivity``, ``crossover`` and ``diff``.
The module-level helpers here (``summarize_savings``,
``optimal_pairs_by_rho``, ``parameter_elasticities``, ``map_regions``)
build one :class:`~repro.api.experiment.Experiment` batch and read the
answer off it with those verbs or the same rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".verbs": (
        "AnalysisProvenance", "FrontierPoint", "FrontierResult", "SavingsResult",
        "SensitivityResult", "CrossoverEvent", "CrossoverResult", "FieldDelta", "DiffResult",
    ),
    ".savings": ("SavingsSummary", "summarize_savings"),
    ".crossover": ("PairInterval", "optimal_pairs_by_rho"),
    ".scaling": ("PowerLawFit", "fit_power_law"),
    ".regions": ("RegionMap", "map_regions"),
    ".breakdown": ("EnergyBreakdown", "energy_breakdown"),
    ".sensitivity": ("Elasticities", "parameter_elasticities"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .breakdown import EnergyBreakdown, energy_breakdown
    from .crossover import PairInterval, optimal_pairs_by_rho
    from .regions import RegionMap, map_regions
    from .savings import SavingsSummary, summarize_savings
    from .scaling import PowerLawFit, fit_power_law
    from .sensitivity import Elasticities, parameter_elasticities
    from .verbs import (
        AnalysisProvenance, CrossoverEvent, CrossoverResult, DiffResult, FieldDelta, FrontierPoint,
        FrontierResult, SavingsResult, SensitivityResult,
    )
