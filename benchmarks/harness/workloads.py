"""The benchmark workload suites (full and ``--quick`` sizes).

One definition of *what* each benchmark measures, used by the
``benchmarks/bench_*.py`` scripts (tier-2, with their equivalence
assertions and speedup floors) and by ``python -m benchmarks.harness``
(the CI bench smoke job).  Every workload is gated on its own adjusted
median against the committed report; the loop workloads are measured
beside the batched paths as context, not as denominators.

Six suites, each a legacy bench script or a dispatch path:

``schedule_grid``
    The per-scenario ``schedule`` loop vs the batched
    ``schedule-grid`` pass, on a pure general-schedule exponential
    grid.
``error_models``
    The same comparison on a mixed renewal-model grid
    (Weibull/Gamma/exponential rows).
``experiment_plan``
    Per-point ``Scenario.solve`` loop vs one batched
    :class:`~repro.api.experiment.Experiment` plan over a frontier
    grid.
``study_batch``
    A per-scenario loop of standalone scalar ``firstorder`` solves vs
    the batched path (``Experiment.solve(backend="grid")``, the alias
    of ``firstorder``, whose batch path is the vectorised kernel) over
    a catalog x rho grid.
``dispatch_overhead``
    Cold-pool vs warm-pool plan dispatch: the same sequence of small
    multi-process plans executed through a fresh
    :class:`~repro.exec.warm.WarmWorkerPool` per plan, spawned and shut
    down by the call (``processes=2``), vs the persistent process-wide
    pool (``transport="warm"``) — the per-plan spawn/teardown cost a
    long-lived pool amortises.
``service_dispatch``
    The solver service's job-layer overhead: the same rho grid solved
    directly (an inline :class:`~repro.api.experiment.Experiment`) vs
    submitted as a JSON job through the in-process service client —
    cold (fresh points every call) and fully cached (the identical
    re-submission served from the shared solve cache).

Quick sizes are chosen so the whole quick run stays in CI-smoke
territory while still exercising every code path.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import InvalidParameterError

from .report import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.experiment import Experiment
    from repro.api.result import Result
    from repro.api.scenario import Scenario

__all__ = [
    "build_suite",
    "suite_names",
    "schedule_grid_scenarios",
    "error_model_scenarios",
    "experiment_plan_scenarios",
    "study_batch_loop",
    "study_batch_study",
    "dispatch_scenarios",
]


# ----------------------------------------------------------------------
# Grid definitions (the bench scripts' constants, sizeable via quick)
# ----------------------------------------------------------------------

_CONFIG = "hera-xscale"

_SG_SCHEDULES = (
    "esc:0.4,0.6,0.8",
    "esc:0.6,0.4,0.8@1",
    "esc:0.4,0.8,0.6,1",
    "geom:0.4,1.5,1",
    "geom:0.45,1.4,0.9",
    "geom:0.4,1.8,1.2",
    "geom:0.5,1.3,1",
    "geom:0.8,0.5,1,0.2",
    "geom:1,0.6,1.2,0.3",
    "geom:0.6,1.6,1",
)

_EM_MODELS = (
    "exp:rate=3.38e-06",
    "exp:rate=3.38e-06,failstop=0.5",
    "weibull:shape=0.7,mtbf=3e5",
    "weibull:shape=0.7,mtbf=3e5,failstop=0.2",
    "weibull:shape=1.5,mtbf=1e5",
    "gamma:shape=2,mtbf=3e5",
    "gamma:shape=0.5,mtbf=3e5,failstop=0.5",
    "gamma:shape=3,mtbf=2e5",
)
_EM_SCHEDULES = (
    "esc:0.4,0.6,0.8",
    "geom:0.4,1.5,1",
    "geom:0.8,0.5,1,0.2",
    "esc:0.6,0.4,0.8@1",
    "geom:0.45,1.4,0.9",
)

_EP_SCHEDULE = "geom:0.4,1.5,1"
_EP_ERRORS = "weibull:shape=0.7,mtbf=3e5"


def schedule_grid_scenarios(*, quick: bool = False) -> "list[Scenario]":
    """The ``schedule_grid`` grid: general schedules x rhos x rates.

    Full size is the legacy bench's 1000 scenarios (10 x 10 x 10);
    quick is 2 x 3 x 2 = 12.
    """
    from repro.api.scenario import Scenario

    schedules = _SG_SCHEDULES[:2] if quick else _SG_SCHEDULES
    rhos = np.linspace(2.8, 5.5, 3 if quick else 10)
    rates = np.logspace(-6, -4, 2 if quick else 10)
    return [
        Scenario(
            config=_CONFIG,
            rho=float(rho),
            error_rate=float(rate),
            schedule=sched,
        )
        for sched in schedules
        for rho in rhos
        for rate in rates
    ]


def error_model_scenarios(*, quick: bool = False) -> "list[Scenario]":
    """The ``error_models`` grid: renewal models x schedules x rhos.

    Full size is the legacy bench's 400 scenarios (8 x 5 x 10); quick
    is 3 x 2 x 3 = 18.
    """
    from repro.api.scenario import Scenario

    models = _EM_MODELS[2:5] if quick else _EM_MODELS
    schedules = _EM_SCHEDULES[:2] if quick else _EM_SCHEDULES
    rhos = np.linspace(2.8, 5.0, 3 if quick else 10)
    return [
        Scenario(config=_CONFIG, rho=float(rho), errors=model, schedule=sched)
        for model in models
        for sched in schedules
        for rho in rhos
    ]


def experiment_plan_scenarios(*, quick: bool = False) -> "list[Scenario]":
    """The ``experiment_plan`` frontier grid (96 bounds; quick: 6)."""
    from repro.api.scenario import Scenario

    rhos = np.linspace(2.76, 4.0, 6 if quick else 96)
    return [
        Scenario(
            config=_CONFIG, rho=float(rho), schedule=_EP_SCHEDULE, errors=_EP_ERRORS
        )
        for rho in rhos
    ]


def dispatch_scenarios() -> "list[Scenario]":
    """The ``dispatch_overhead`` grid: a small per-scenario-backend
    plan (12 bounds), so shard *dispatch* — not solving — dominates
    each plan."""
    from repro.api.scenario import Scenario

    rhos = np.linspace(2.9, 3.6, 12)
    return [Scenario(config=_CONFIG, rho=float(rho)) for rho in rhos]


def study_batch_study(*, quick: bool = False) -> "Experiment":
    """The ``study_batch`` grid: catalog x rho (184; quick: 10)."""
    from repro.api.experiment import Experiment
    from repro.platforms.catalog import configuration_names

    configs = configuration_names()[:2] if quick else configuration_names()
    rhos = tuple(float(r) for r in np.linspace(1.3, 3.5, 5 if quick else 23))
    return Experiment.over(configs=configs, rhos=rhos)


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------


def _solve_with(backend_name: str, scenarios: "Sequence[Scenario]") -> dict[str, float]:
    from repro.api.backends import get_backend

    get_backend(backend_name).solve_batch(list(scenarios))
    return {"scenarios": float(len(scenarios))}


def _loop_vs_grid(scenarios: "Sequence[Scenario]") -> tuple[Workload, ...]:
    return (
        Workload("scalar_loop", lambda: _solve_with("schedule", scenarios)),
        Workload(
            "schedule_grid",
            lambda: _solve_with("schedule-grid", scenarios),
        ),
    )


def _schedule_grid_suite(quick: bool) -> tuple[Workload, ...]:
    return _loop_vs_grid(schedule_grid_scenarios(quick=quick))


def _error_models_suite(quick: bool) -> tuple[Workload, ...]:
    return _loop_vs_grid(error_model_scenarios(quick=quick))


def _experiment_plan_suite(quick: bool) -> tuple[Workload, ...]:
    scenarios = experiment_plan_scenarios(quick=quick)

    def per_point() -> dict[str, float]:
        from repro.exceptions import InfeasibleBoundError

        solved = 0
        for sc in scenarios:
            try:
                sc.solve(cache=False)
                solved += 1
            except InfeasibleBoundError:
                # Infeasible head points mirror frontier skips.
                pass
        return {"scenarios": float(len(scenarios)), "feasible": float(solved)}

    def batched() -> dict[str, float]:
        from repro.api.experiment import Experiment

        Experiment.from_scenarios(scenarios, name="bench-frontier").solve(
            cache=False
        )
        return {"scenarios": float(len(scenarios))}

    return (
        Workload("per_point_loop", per_point),
        Workload("batched_plan", batched),
    )


def study_batch_loop(study: "Experiment") -> "list[Result | None]":
    """The ``study_batch`` baseline: every scenario solved standalone,
    one scalar ``firstorder`` enumeration each (``None`` = infeasible).
    ``study.solve(backend="firstorder")`` would take the batch path."""
    from repro.exceptions import InfeasibleBoundError

    results: "list[Result | None]" = []
    for sc in study:
        try:
            results.append(sc.solve(backend="firstorder", cache=False))
        except InfeasibleBoundError:
            results.append(None)
    return results


def _study_batch_suite(quick: bool) -> tuple[Workload, ...]:
    study = study_batch_study(quick=quick)

    def loop() -> dict[str, float]:
        study_batch_loop(study)
        return {"scenarios": float(len(study))}

    def grid() -> dict[str, float]:
        study.solve(backend="grid", cache=False)
        return {"scenarios": float(len(study))}

    return (
        Workload("firstorder_loop", loop),
        Workload("grid_backend", grid),
    )


def _dispatch_overhead_suite(quick: bool) -> tuple[Workload, ...]:
    # One size for quick and full runs: 2 plans of 4 scenarios (~3 ms)
    # spread 1.66x over same-tree runs, too close to the gate's BOUND.
    scenarios = dispatch_scenarios()
    plans = 4

    def _run_plans(transport: "str | None") -> dict[str, float]:
        from repro.api.experiment import Experiment

        exp = Experiment.from_scenarios(scenarios, name="bench-dispatch")
        for _ in range(plans):
            exp.solve(cache=False, processes=2, transport=transport)
        return {"plans": float(plans), "scenarios": float(len(scenarios))}

    def cold() -> dict[str, float]:
        # transport=None + processes=2: a fresh pool per plan, shut
        # down before the call returns — the cold dispatch cost.
        return _run_plans(None)

    def warm() -> dict[str, float]:
        # The process-wide warm pool: workers spawn once (first call,
        # i.e. during warmup) and every later plan only pays pipe
        # traffic.  The atexit hook shuts the default pool down.
        return _run_plans("warm")

    return (
        Workload("cold_pool", cold),
        Workload("warm_pool", warm),
    )


def _service_dispatch_suite(quick: bool) -> tuple[Workload, ...]:
    from repro.api.cache import SolveCache
    from repro.api.experiment import Experiment
    from repro.service import InMemoryArtifactStore, ServiceApp, ServiceConfig
    from repro.service.testing import InProcessClient

    n = 16 if quick else 96
    rho_lo, rho_hi = 2.6, 5.0
    # One long-lived service app (inline transport: the suite measures
    # the job layer's overhead, not process dispatch), exercised by the
    # in-process client.  Each cold call shifts the rho axis by a tiny
    # unique offset so repetitions never hit the shared cache.
    app = ServiceApp(
        ServiceConfig(transport="inline", job_workers=1),
        cache=SolveCache(),
        artifacts=InMemoryArtifactStore(),
    )
    app.startup()
    client = InProcessClient(app)
    fresh = iter(range(1, 1_000_000))

    def _spec(shift: int) -> dict[str, object]:
        eps = shift * 1e-7
        return {
            "name": f"bench-dispatch-{shift}",
            "grid": {
                "configs": ["hera-xscale"],
                "rhos": {"start": rho_lo + eps, "stop": rho_hi + eps, "count": n},
            },
            "artifacts": ["json"],
        }

    def _submit_and_wait(spec: dict[str, object]) -> dict[str, float]:
        doc = client.submit(spec)
        app.queue.wait_idle(timeout=300.0)
        final = client.get(f"/v1/jobs/{doc['id']}").json()
        result = final.get("result") or {}
        return {
            "scenarios": float(n),
            "cache_hits": float(result.get("cache_hits", 0)),
        }

    def direct() -> dict[str, float]:
        eps = next(fresh) * 1e-7
        rhos = np.linspace(rho_lo + eps, rho_hi + eps, n)
        exp = Experiment.over(configs=("hera-xscale",), rhos=tuple(rhos))
        exp.solve(cache=False)
        return {"scenarios": float(n)}

    def cold() -> dict[str, float]:
        return _submit_and_wait(_spec(next(fresh)))

    warm_spec = _spec(0)
    _submit_and_wait(warm_spec)  # prime the shared cache once, eagerly

    def cached() -> dict[str, float]:
        # The identical re-submission: every scenario replays from the
        # shared solve cache — the >= 90% hit-rate acceptance path.
        return _submit_and_wait(warm_spec)

    return (
        Workload("direct_solve", direct),
        Workload("service_job_cold", cold),
        Workload("service_job_cached", cached),
    )


_SUITES: dict[str, Callable[[bool], tuple[Workload, ...]]] = {
    "schedule_grid": _schedule_grid_suite,
    "error_models": _error_models_suite,
    "experiment_plan": _experiment_plan_suite,
    "study_batch": _study_batch_suite,
    "dispatch_overhead": _dispatch_overhead_suite,
    "service_dispatch": _service_dispatch_suite,
}


def suite_names() -> tuple[str, ...]:
    """The registered suite names, definition order."""
    return tuple(_SUITES)


def build_suite(name: str, *, quick: bool = False) -> tuple[Workload, ...]:
    """Materialise one suite's workloads (grids built eagerly, so the
    timed calls measure solving only)."""
    try:
        factory = _SUITES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown bench suite {name!r}; available: "
            f"{', '.join(suite_names())}"
        ) from None
    return factory(quick)
