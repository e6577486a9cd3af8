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

from .core import (
    BiCritSolution,
    CandidateOutcome,
    Pattern,
    PatternSolution,
    energy_optimal_work,
    energy_overhead,
    energy_overhead_fo,
    expected_energy,
    expected_time,
    min_performance_bound,
    optimal_work,
    solve_bicrit,
    solve_bicrit_exact,
    solve_single_speed,
    time_overhead,
    time_overhead_fo,
)
from .errors import (
    ArrivalProcess,
    CombinedErrors,
    ErrorModel,
    ExponentialArrivals,
    ExponentialErrors,
    GammaArrivals,
    TraceArrivals,
    WeibullArrivals,
    error_model_kinds,
    parse_error_model,
)
from .schedules import (
    Constant,
    Escalating,
    Geometric,
    ScheduleGridSolution,
    ScheduleSolution,
    SpeedSchedule,
    TwoSpeed,
    evaluate_schedule,
    evaluate_schedule_batch,
    parse_schedule,
    schedule_kinds,
    solve_schedule,
    solve_schedule_batch,
)
from .exceptions import (
    ApproximationDomainError,
    ConvergenceError,
    InfeasibleBoundError,
    InvalidParameterError,
    InvalidTruncationError,
    ReproError,
    SpeedNotAvailableError,
    UnknownBackendError,
    UnsupportedErrorModelError,
    UnsupportedScenarioError,
)
from .platforms import (
    ATLAS,
    COASTAL,
    COASTAL_SSD,
    CRUSOE,
    HERA,
    XSCALE,
    Configuration,
    Platform,
    Processor,
    all_configurations,
    configuration_names,
    get_configuration,
)
from .power import PowerModel

# Extension surface (lazy-ish: these are light imports, re-exported for
# discoverability; the full APIs live in their subpackages).
from .analysis import (
    CrossoverResult,
    FrontierResult,
    SavingsResult,
    SensitivityResult,
    fit_power_law,
    map_regions,
    optimal_pairs_by_rho,
    summarize_savings,
)
from .failstop import (
    solve_bicrit_combined,
    theorem2_work,
    time_optimal_work,
)
from .simulation import (
    ApplicationSimulator,
    PatternSimulator,
    check_agreement,
    simulate_until,
)
from .sweep import (
    run_figure,
    run_sweep,
    speed_pair_table,
    sweep_failstop_fraction,
)

# The unified solve API (imported last: its backends wrap the solver
# implementations above).
from .api import (
    ExecutionPlan,
    Experiment,
    Result,
    ResultSet,
    Scenario,
    SolveCache,
    SolverBackend,
    available_backends,
    get_backend,
    register_backend,
)

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # unified solve API
    "Scenario",
    "Experiment",
    "ExecutionPlan",
    "Result",
    "ResultSet",
    "SolverBackend",
    "SolveCache",
    "register_backend",
    "get_backend",
    "available_backends",
    # errors / exceptions
    "ReproError",
    "InvalidParameterError",
    "InvalidTruncationError",
    "InfeasibleBoundError",
    "SpeedNotAvailableError",
    "ApproximationDomainError",
    "ConvergenceError",
    "UnknownBackendError",
    "UnsupportedScenarioError",
    "UnsupportedErrorModelError",
    # substrates
    "ExponentialErrors",
    "CombinedErrors",
    # error models (renewal arrival processes)
    "ArrivalProcess",
    "ExponentialArrivals",
    "WeibullArrivals",
    "GammaArrivals",
    "TraceArrivals",
    "ErrorModel",
    "parse_error_model",
    "error_model_kinds",
    "PowerModel",
    "Platform",
    "Processor",
    "Configuration",
    "HERA",
    "ATLAS",
    "COASTAL",
    "COASTAL_SSD",
    "XSCALE",
    "CRUSOE",
    "all_configurations",
    "configuration_names",
    "get_configuration",
    # speed schedules
    "SpeedSchedule",
    "TwoSpeed",
    "Constant",
    "Escalating",
    "Geometric",
    "parse_schedule",
    "schedule_kinds",
    "evaluate_schedule",
    "solve_schedule",
    "ScheduleSolution",
    "evaluate_schedule_batch",
    "solve_schedule_batch",
    "ScheduleGridSolution",
    # core
    "Pattern",
    "PatternSolution",
    "CandidateOutcome",
    "BiCritSolution",
    "expected_time",
    "expected_energy",
    "time_overhead",
    "energy_overhead",
    "time_overhead_fo",
    "energy_overhead_fo",
    "energy_optimal_work",
    "optimal_work",
    "min_performance_bound",
    "solve_bicrit",
    "solve_bicrit_exact",
    "solve_single_speed",
    # failstop extensions
    "solve_bicrit_combined",
    "theorem2_work",
    "time_optimal_work",
    # simulation
    "PatternSimulator",
    "ApplicationSimulator",
    "check_agreement",
    "simulate_until",
    # sweeps / experiments
    "run_sweep",
    "run_figure",
    "speed_pair_table",
    "sweep_failstop_fraction",
    # analysis
    "FrontierResult",
    "SavingsResult",
    "SensitivityResult",
    "CrossoverResult",
    "map_regions",
    "optimal_pairs_by_rho",
    "summarize_savings",
    "fit_power_law",
]
