"""repro — reproduction of "A different re-execution speed can help".

Benoit, Cavelan, Le Fèvre, Robert, Sun (ICPP 2016 / INRIA RR-8888).

The library models a divisible-load application checkpointing
periodically under silent (and optionally fail-stop) errors on a DVFS
platform, and solves the bi-criteria problem of minimising expected
energy per unit of work subject to a bound on expected time per unit of
work, allowing re-executions after failures to run at a *different*
speed.

Quickstart
----------
Declare *what* to solve as a :class:`Scenario`; the pluggable backend
registry decides *how* (``firstorder`` for the paper's two-speed model,
``schedule-grid`` for schedules, error models and the Section-5 modes),
with memoised caching and provenance:

>>> import repro
>>> result = repro.Scenario(config="hera-xscale", rho=3.0).solve()
>>> result.best.speed_pair, round(result.best.work)
((0.4, 0.4), 2764)
>>> result.provenance.backend
'firstorder'

Batches of scenarios (grids over configurations, bounds, modes) are an
:class:`Experiment`, and the ``firstorder`` batch path solves whole
grids in a few broadcast NumPy ops:

>>> exp = repro.Experiment.over(configs=("hera-xscale", "atlas-crusoe"))
>>> [r.best.speed_pair for r in exp.solve()]
[(0.4, 0.4), (0.45, 0.45)]

Derived analyses compose on the same lazy pipeline — a deduplicated,
batched execution plan plus analysis verbs on the result
(``docs/experiments.md``):

>>> fr = (
...     repro.Experiment.over(configs=("hera-xscale",), rhos=(2.5, 3.0, 4.0))
...     .solve()
...     .frontier()
... )
>>> fr.is_monotone()
True

The legacy entry points remain as thin wrappers over the same registry:

>>> cfg = repro.get_configuration("hera-xscale")
>>> sol = repro.solve_bicrit(cfg, rho=3.0)
>>> sol.best.speed_pair, round(sol.best.work)
((0.4, 0.4), 2764)

Re-executions need not share one speed: a per-attempt
:class:`SpeedSchedule` (``TwoSpeed``, ``Constant``, ``Escalating``,
``Geometric``) generalises the paper's model — see ``docs/schedules.md``:

>>> sched = repro.Geometric(0.4, 1.5, sigma_max=1.0)
>>> sched.speeds_for_attempts(4)
(0.4, 0.6000000000000001, 0.9000000000000001, 1.0)

Nor must errors arrive memorylessly: pluggable renewal
:class:`ErrorModel` families (``exp``/``weibull``/``gamma``/``trace``)
replace the exponential assumption end to end — see ``docs/errors.md``:

>>> model = repro.parse_error_model("weibull:shape=0.7,mtbf=5e3,failstop=0.2")
>>> model.failstop_arrivals.mtbf
25000.0

See ``docs/api.md`` for the full Scenario/Experiment workflow and the
legacy-wrapper mapping table.
"""

from typing import TYPE_CHECKING

from ._lazy import attach, exports

__version__ = "1.10.0"

#: The public names, each with the module that defines it.  ``__all__``,
#: ``dir(repro)`` and the name list in docs/api.md come from this table.
_EXPORTS = exports({
    # unified solve API
    ".api.scenario": ("Scenario",),
    ".api.experiment": ("Experiment", "ExecutionPlan"),
    ".api.result": ("Result", "ResultSet"),
    ".api.backends": ("SolverBackend", "register_backend", "get_backend", "available_backends"),
    ".api.cache": ("SolveCache",),
    # errors / exceptions
    ".exceptions": (
        "ReproError", "InvalidParameterError", "InvalidTruncationError",
        "InfeasibleBoundError", "SpeedNotAvailableError", "ApproximationDomainError",
        "ConvergenceError", "UnknownBackendError", "UnsupportedScenarioError",
        "UnsupportedErrorModelError",
    ),
    # substrates
    ".errors.combined": ("CombinedErrors",),
    # error models (renewal arrival processes)
    ".errors.models": (
        "ArrivalProcess", "ExponentialArrivals", "WeibullArrivals", "GammaArrivals",
        "TraceArrivals", "ErrorModel", "parse_error_model", "error_model_kinds",
    ),
    # platforms and power
    ".power.model": ("PowerModel",),
    ".platforms.platform": ("Platform",),
    ".platforms.processor": ("Processor",),
    ".platforms.configuration": ("Configuration",),
    ".platforms.catalog": (
        "HERA", "ATLAS", "COASTAL", "COASTAL_SSD", "XSCALE", "CRUSOE",
        "all_configurations", "configuration_names", "get_configuration",
    ),
    # speed schedules
    ".schedules.base": (
        "SpeedSchedule", "TwoSpeed", "Constant", "Escalating", "Geometric",
        "parse_schedule", "schedule_kinds",
    ),
    ".schedules.evaluator": ("evaluate_schedule",),
    ".schedules.solver": ("solve_schedule", "ScheduleSolution"),
    ".schedules.vectorized": ("evaluate_schedule_batch", "solve_schedule_batch"),
    # core
    ".core.pattern": ("Pattern",),
    ".core.solution": ("PatternSolution", "BiCritSolution"),
    ".core.exact": ("expected_time", "expected_energy", "time_overhead", "energy_overhead"),
    ".core.firstorder": ("time_overhead_fo", "energy_overhead_fo"),
    ".core.optimum": ("energy_optimal_work", "optimal_work"),
    ".core.feasibility": ("min_performance_bound",),
    ".core.solver": ("solve_bicrit",),
    ".core.numeric": ("solve_bicrit_exact",),
    ".core.singlespeed": ("solve_single_speed",),
    # failstop extensions
    ".failstop.solver": ("solve_bicrit_combined", "time_optimal_work"),
    ".failstop.secondorder": ("theorem2_work",),
    # simulation
    ".simulation.engine": ("PatternSimulator",),
    ".simulation.application": ("ApplicationSimulator",),
    ".simulation.estimators": ("check_agreement",),
    ".simulation.convergence": ("simulate_until",),
    # sweeps / experiments
    ".sweep.runner": ("run_sweep",),
    ".sweep.figures": ("run_figure",),
    ".sweep.tables": ("speed_pair_table",),
    ".sweep.fraction": ("sweep_failstop_fraction",),
    # analysis
    ".analysis.verbs": ("FrontierResult", "SavingsResult", "SensitivityResult", "CrossoverResult"),
    ".analysis.regions": ("map_regions",),
    ".analysis.crossover": ("optimal_pairs_by_rho",),
    ".analysis.savings": ("summarize_savings",),
    ".analysis.scaling": ("fit_power_law",),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS, extra=("__version__",))

if TYPE_CHECKING:
    from .analysis.crossover import optimal_pairs_by_rho
    from .analysis.regions import map_regions
    from .analysis.savings import summarize_savings
    from .analysis.scaling import fit_power_law
    from .analysis.verbs import CrossoverResult, FrontierResult, SavingsResult, SensitivityResult
    from .api.backends import SolverBackend, available_backends, get_backend, register_backend
    from .api.cache import SolveCache
    from .api.experiment import ExecutionPlan, Experiment
    from .api.result import Result, ResultSet
    from .api.scenario import Scenario
    from .core.exact import energy_overhead, expected_energy, expected_time, time_overhead
    from .core.feasibility import min_performance_bound
    from .core.firstorder import energy_overhead_fo, time_overhead_fo
    from .core.numeric import solve_bicrit_exact
    from .core.optimum import energy_optimal_work, optimal_work
    from .core.pattern import Pattern
    from .core.singlespeed import solve_single_speed
    from .core.solution import BiCritSolution, PatternSolution
    from .core.solver import solve_bicrit
    from .errors.combined import CombinedErrors
    from .errors.models import (
        ArrivalProcess, ErrorModel, ExponentialArrivals, GammaArrivals, TraceArrivals,
        WeibullArrivals, error_model_kinds, parse_error_model,
    )
    from .exceptions import (
        ApproximationDomainError, ConvergenceError, InfeasibleBoundError,
        InvalidParameterError, InvalidTruncationError, ReproError, SpeedNotAvailableError,
        UnknownBackendError, UnsupportedErrorModelError, UnsupportedScenarioError,
    )
    from .failstop.secondorder import theorem2_work
    from .failstop.solver import solve_bicrit_combined, time_optimal_work
    from .platforms.catalog import (
        ATLAS, COASTAL, COASTAL_SSD, CRUSOE, HERA, XSCALE, all_configurations,
        configuration_names, get_configuration,
    )
    from .platforms.configuration import Configuration
    from .platforms.platform import Platform
    from .platforms.processor import Processor
    from .power.model import PowerModel
    from .schedules.base import (
        Constant, Escalating, Geometric, SpeedSchedule, TwoSpeed, parse_schedule,
        schedule_kinds,
    )
    from .schedules.evaluator import evaluate_schedule
    from .schedules.solver import ScheduleSolution, solve_schedule
    from .schedules.vectorized import evaluate_schedule_batch, solve_schedule_batch
    from .simulation.application import ApplicationSimulator
    from .simulation.convergence import simulate_until
    from .simulation.engine import PatternSimulator
    from .simulation.estimators import check_agreement
    from .sweep.figures import run_figure
    from .sweep.fraction import sweep_failstop_fraction
    from .sweep.runner import run_sweep
    from .sweep.tables import speed_pair_table
