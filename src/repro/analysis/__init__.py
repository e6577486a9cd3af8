"""Derived analyses: savings, crossovers, scaling, regions, breakdown.

Every analysis is a *verb* on a solved
:class:`~repro.api.result.ResultSet` (:mod:`repro.analysis.verbs`):
``frontier``, ``savings``, ``sensitivity``, ``crossover`` and ``diff``.
The module-level helpers here (``summarize_savings``,
``optimal_pairs_by_rho``, ``parameter_elasticities``, ``map_regions``)
build one :class:`~repro.api.experiment.Experiment` batch and read the
answer off it with those verbs or the same rules.
"""

from .breakdown import EnergyBreakdown, energy_breakdown
from .crossover import PairInterval, optimal_pairs_by_rho
from .regions import RegionMap, map_regions
from .savings import SavingsSummary, summarize_savings
from .scaling import PowerLawFit, fit_power_law
from .sensitivity import Elasticities, parameter_elasticities
from .verbs import (
    AnalysisProvenance,
    CrossoverEvent,
    CrossoverResult,
    DiffResult,
    FieldDelta,
    FrontierPoint,
    FrontierResult,
    SavingsResult,
    SensitivityResult,
)

__all__ = [
    "AnalysisProvenance",
    "FrontierPoint",
    "FrontierResult",
    "SavingsResult",
    "SensitivityResult",
    "CrossoverEvent",
    "CrossoverResult",
    "FieldDelta",
    "DiffResult",
    "SavingsSummary",
    "summarize_savings",
    "PairInterval",
    "optimal_pairs_by_rho",
    "PowerLawFit",
    "fit_power_law",
    "RegionMap",
    "map_regions",
    "EnergyBreakdown",
    "energy_breakdown",
    "Elasticities",
    "parameter_elasticities",
]
