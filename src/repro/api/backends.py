"""Pluggable solver backends behind a process-wide registry.

A backend turns a :class:`~repro.api.scenario.Scenario` into a
:class:`~repro.api.result.Result`.  Four ship by default, and
:attr:`Scenario.default_backend <repro.api.scenario.Scenario.default_backend>`
routes to one of two: ``firstorder`` for the paper's two-speed model,
``schedule-grid`` for everything else.

``firstorder``
    The paper's Theorem-1 closed form + O(K^2) enumeration
    (:mod:`repro.core.solver` / :mod:`repro.core.singlespeed`) for a
    standalone solve; batches run through the vectorised Theorem-1
    kernel (:func:`repro.sweep.vectorized.evaluate_pair_grid`), one
    broadcast pass per pair axis, and every winner is read off the
    kernel's columns (its exact Prop. 2/3 overheads from one
    :func:`~repro.sweep.vectorized.exact_overheads` pass).  The default
    for schedule-less ``silent``/``single-speed`` scenarios without an
    explicit error model.
``exact``
    Numeric optimisation of the exact Propositions 2/3
    (:mod:`repro.core.numeric`).
``schedule``
    The scalar reference for scheduled scenarios (:mod:`repro.schedules`):
    two-speed schedules take the closed-form/pair fast path
    (:func:`_solve_two_speed`), general schedules the exact
    attempt-series evaluator + numeric constrained solve.  Nothing
    routes here by default; it is the oracle the batch kernel is
    pinned against.
``schedule-grid``
    The default for every other scenario — the Section-5 combined and
    fail-stop modes, any schedule, any explicit error model.  Two-speed
    schedules without an error model take the Theorem-1 closed form;
    every other row stacks into one
    :class:`~repro.schedules.vectorized.ScheduleGrid`
    (:mod:`repro.schedules.vectorized`), a schedule-less row as one
    ``TwoSpeed`` row per speed pair, and solves in lockstep broadcast
    passes.

The retired names stay in the registry as aliases of the instances
that replaced them — ``grid`` of ``firstorder``; ``combined``,
``schedule-grid-jit`` and ``schedule-grid-incremental`` of
``schedule-grid`` — so old specs and ``--backend`` arguments still
resolve.  An alias is only a name: scenarios resolve it to the
instance's canonical ``name`` before planning and caching
(:meth:`~repro.api.scenario.Scenario.resolve_backend_name`), so every
spelling of one backend shares one plan group and one cache entry.

Registering a new backend (``register_backend``) is the single
extension point for new solve strategies; every consumer (legacy
wrappers, sweeps, CLI, experiments) routes through the registry.
"""

from __future__ import annotations

import abc
import time
from dataclasses import replace
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.numeric import ExactSolution, solve_pair_exact
from ..core.singlespeed import _solve_single_speed_direct
from ..core.solution import PatternSolution
from ..core.solver import _solve_bicrit_direct, evaluate_pair
from ..errors.models import ErrorModel
from ..exceptions import (
    InfeasibleBoundError,
    InvalidParameterError,
    UnknownBackendError,
    UnsupportedScenarioError,
)
from ..platforms.configuration import Configuration
from ..schedules.base import SpeedSchedule, TwoSpeed
from ..schedules.solver import ScheduleSolution, schedule_min_bound, solve_schedule
from ..schedules.vectorized import ScheduleGrid, solve_schedule_grid
from ..sweep.vectorized import config_columns, evaluate_pair_grid, exact_overheads
from .result import Provenance, Result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scenario import Scenario

__all__ = [
    "SolverBackend",
    "FirstOrderBackend",
    "ExactBackend",
    "ScheduleBackend",
    "ScheduleGridBackend",
    "register_backend",
    "get_backend",
    "available_backends",
]


class SolverBackend(abc.ABC):
    """Interface every solver backend implements.

    Subclasses set ``name`` (the registry key) and ``modes`` (the
    scenario modes they accept) and implement :meth:`_solve`.
    Batch-capable backends additionally override :meth:`solve_batch`.
    """

    #: Registry key.
    name: str = "abstract"
    #: Scenario modes this backend accepts.
    modes: frozenset[str] = frozenset()
    #: Whether scenarios carrying a per-attempt speed schedule are
    #: accepted (only the ``schedule``/``schedule-grid`` backends
    #: understand them).
    handles_schedules: bool = False
    #: Whether scenarios carrying an explicit ``errors`` model are
    #: accepted.  The legacy backends bake exponential arrivals into
    #: their closed forms, so only the schedule backends — whose
    #: evaluator dispatches through the model's renewal primitives —
    #: opt in.
    handles_error_models: bool = False

    @property
    def batched(self) -> bool:
        """True when this backend overrides :meth:`solve_batch` with a
        real vectorised batch path (vs the default per-scenario loop).
        ``Experiment.solve(processes=...)`` shards whole batches to such
        backends instead of fanning out scenario by scenario."""
        return type(self).solve_batch is not SolverBackend.solve_batch

    # ------------------------------------------------------------------
    def supports(self, scenario: "Scenario") -> bool:
        """True when this backend can solve ``scenario``."""
        return self.unsupported_reason(scenario) is None

    def unsupported_reason(self, scenario: "Scenario") -> str | None:
        """Why ``scenario`` cannot be solved here (``None`` = it can)."""
        if scenario.mode not in self.modes:
            return (
                f"mode {scenario.mode!r} not in supported modes "
                f"{sorted(self.modes)}"
            )
        if scenario.schedule is not None and not self.handles_schedules:
            return "per-attempt speed schedules require the 'schedule-grid' backend"
        if scenario.errors is not None and not self.handles_error_models:
            return (
                "explicit error models require the 'schedule-grid' backend "
                "(its evaluator dispatches through the model's renewal "
                "primitives)"
            )
        return None

    def check_supports(self, scenario: "Scenario") -> None:
        """Raise :class:`UnsupportedScenarioError` when unsupported."""
        reason = self.unsupported_reason(scenario)
        if reason is not None:
            raise UnsupportedScenarioError(self.name, reason)

    # ------------------------------------------------------------------
    def solve(self, scenario: "Scenario") -> Result:
        """Solve one scenario (raises on infeasible bounds)."""
        self.check_supports(scenario)
        return self._solve(scenario)

    @abc.abstractmethod
    def _solve(self, scenario: "Scenario") -> Result:
        """Backend-specific solve; may raise InfeasibleBoundError."""

    def solve_batch(self, scenarios: Sequence["Scenario"]) -> list[Result]:
        """Solve many scenarios, mapping infeasible bounds to
        infeasible results instead of raising (batch semantics)."""
        out: list[Result] = []
        for sc in scenarios:
            t0 = time.perf_counter()
            try:
                res = self.solve(sc)
            except InfeasibleBoundError as exc:
                res = self.infeasible_result(sc, exc)
            wall = time.perf_counter() - t0
            out.append(
                replace(res, provenance=replace(res.provenance, wall_time=wall))
            )
        return out

    # ------------------------------------------------------------------
    def infeasible_result(
        self, scenario: "Scenario", exc: InfeasibleBoundError | None = None
    ) -> Result:
        """A best-less result recording an infeasible bound."""
        return Result(
            scenario=scenario,
            provenance=Provenance(backend=self.name),
            best=None,
            rho_min=exc.rho_min if exc is not None else None,
        )


# ----------------------------------------------------------------------
# Default backends
# ----------------------------------------------------------------------
class FirstOrderBackend(SolverBackend):
    """Theorem-1 closed form + O(K^2) enumeration (the paper's solver).

    A standalone solve (:meth:`solve`) runs the scalar enumeration and
    returns the full ``BiCritSolution`` with every candidate.
    :meth:`solve_batch` groups the batch by pair axis (the s1-major
    product, the single-speed diagonal, or a ``speeds=`` /
    ``sigma2_choices=`` restriction) and evaluates each group's rows x
    pairs in one :func:`~repro.sweep.vectorized.evaluate_pair_grid`
    pass.  The kernel repeats the scalar arithmetic, so its first
    minimum is the scalar scan's winner and its columns are that
    winner's first-order fields; one
    :func:`~repro.sweep.vectorized.exact_overheads` pass over the
    winners adds the exact Prop. 2/3 overheads, again in the scalar
    operation order.  So ``best`` equals what
    :func:`~repro.core.solver.evaluate_pair` returns for the winning
    pair, field for field, with no scalar work per row.  Batch results
    carry ``best`` (or, when infeasible, the Eq. (6) ``rho_min``) but
    no candidates.
    """

    name = "firstorder"
    modes = frozenset({"silent", "single-speed"})

    def _solve(self, scenario: "Scenario") -> Result:
        cfg = scenario.resolved_config()
        if scenario.mode == "single-speed":
            sol = _solve_single_speed_direct(cfg, scenario.rho, speeds=scenario.speeds)
        else:
            sol = _solve_bicrit_direct(
                cfg,
                scenario.rho,
                speeds=scenario.speeds,
                sigma2_choices=scenario.sigma2_choices,
            )
        return Result(
            scenario=scenario,
            provenance=Provenance(backend=self.name),
            best=sol.best,
            candidates=sol.candidates,
            raw=sol,
        )

    def solve_batch(self, scenarios: Sequence["Scenario"]) -> list[Result]:
        for sc in scenarios:
            self.check_supports(sc)
        t0 = time.perf_counter()
        bests: list[PatternSolution | None] = [None] * len(scenarios)
        rho_mins: list[float | None] = [None] * len(scenarios)
        configs = [sc.resolved_config() for sc in scenarios]
        groups: dict[tuple[tuple[float, float], ...], list[int]] = {}
        for i, (sc, cfg) in enumerate(zip(scenarios, configs)):
            groups.setdefault(tuple(_scenario_pair_axis(sc, cfg)), []).append(i)

        for pairs, idxs in groups.items():
            if not pairs or min(min(pair) for pair in pairs) <= 0.0:
                # No pair, or a non-positive speed: a standalone solve
                # raises exactly what Scenario.solve raises.
                self.solve(scenarios[idxs[0]])
            s1, s2 = zip(*pairs)
            columns = config_columns([configs[i] for i in idxs])
            grid = evaluate_pair_grid(
                s1, s2, **columns, rho=np.array([scenarios[i].rho for i in idxs])
            )
            rows = np.arange(len(idxs))
            k = np.argmin(grid.energy, axis=1)
            energy = grid.energy[rows, k]
            ok = np.isfinite(energy)
            work = grid.work[rows, k]
            energy_exact = np.full(len(idxs), np.nan)
            time_exact = np.full(len(idxs), np.nan)
            energy_exact[ok], time_exact[ok] = exact_overheads(
                work[ok],
                np.asarray(s1)[k[ok]],
                np.asarray(s2)[k[ok]],
                **{name: column[ok] for name, column in columns.items()},
            )
            # The winner's fields after its pair, in PatternSolution order.
            fields = (
                work,
                energy,
                grid.time[rows, k],
                energy_exact,
                time_exact,
                grid.rho_min[rows, k],
            )
            for i, pair, feasible, row_rho_min, *values in zip(
                idxs,
                k.tolist(),
                ok.tolist(),
                np.min(grid.rho_min, axis=1).tolist(),
                *(column.tolist() for column in fields),
            ):
                if feasible:
                    bests[i] = PatternSolution(*pairs[pair], *values)
                else:
                    rho_mins[i] = row_rho_min

        wall = time.perf_counter() - t0
        provenance = Provenance(
            backend=self.name,
            wall_time=wall / max(len(scenarios), 1),
            batch_size=len(scenarios),
        )
        return [
            Result(scenario=sc, provenance=provenance, best=best, rho_min=rho_min)
            for sc, best, rho_min in zip(scenarios, bests, rho_mins)
        ]


class ExactBackend(SolverBackend):
    """Numeric optimisation of the exact Propositions 2/3."""

    name = "exact"
    modes = frozenset({"silent", "single-speed"})

    def _solve(self, scenario: "Scenario") -> Result:
        cfg = scenario.resolved_config()
        best: ExactSolution | None = None
        for s1, s2 in _scenario_pair_axis(scenario, cfg):
            sol = solve_pair_exact(cfg, s1, s2, scenario.rho)
            if sol is not None and (
                best is None or sol.energy_overhead < best.energy_overhead
            ):
                best = sol
        if best is None:
            raise InfeasibleBoundError(scenario.rho)
        return Result(
            scenario=scenario,
            provenance=Provenance(backend=self.name),
            best=best,
            raw=best,
        )


def _scenario_pair_axis(
    scenario: "Scenario", cfg: Configuration | None = None
) -> list[tuple[float, float]]:
    """The (sigma1, sigma2) enumeration of a scenario, in the legacy
    solvers' s1-major order (ties resolve the same way everywhere); the
    diagonal in single-speed mode.  ``cfg`` is the scenario's resolved
    configuration, when the caller already has it."""
    cfg = cfg if cfg is not None else scenario.resolved_config()
    s1_set = scenario.speeds if scenario.speeds is not None else cfg.speeds
    if scenario.mode == "single-speed":
        return [(s, s) for s in s1_set]
    s2_set = (
        scenario.sigma2_choices
        if scenario.sigma2_choices is not None
        else cfg.speeds
    )
    return [(s1, s2) for s1 in s1_set for s2 in s2_set]


def _solve_two_speed(
    scenario: "Scenario",
    pair: tuple[float, float],
    errors: ErrorModel | None,
    backend: str,
) -> Result:
    """Solve ``scenario`` at one speed pair on the closed-form fast paths.

    The Theorem-1 :func:`~repro.core.solver.evaluate_pair` for silent
    errors (``errors is None``: the configuration's own rate), the
    Section-5 :func:`~repro.failstop.solver.solve_pair_combined` for a
    memoryless fail-stop/silent mix — byte-identical to the legacy
    solvers at that pair.  ``schedule`` takes both branches;
    ``schedule-grid`` only the first, and the second is the scalar
    oracle its grid rows are pinned against.  ``backend`` names the
    caller in the provenance.
    """
    cfg = scenario.resolved_config()
    if errors is None:
        outcome = evaluate_pair(cfg, pair[0], pair[1], scenario.rho)
        if outcome.solution is None:
            raise InfeasibleBoundError(scenario.rho, outcome.rho_min)
        return Result(
            scenario=scenario,
            provenance=Provenance(backend=backend),
            best=outcome.solution,
            candidates=(outcome,),
            raw=outcome,
        )
    from ..failstop.solver import solve_pair_combined

    sol = solve_pair_combined(cfg, errors.to_combined(), pair[0], pair[1], scenario.rho)
    if sol is None:
        raise InfeasibleBoundError(
            scenario.rho, schedule_min_bound(cfg, TwoSpeed(*pair), errors)
        )
    return Result(
        scenario=scenario,
        provenance=Provenance(backend=backend),
        best=sol,
        raw=sol,
    )


class ScheduleBackend(SolverBackend):
    """Per-attempt speed schedules (:mod:`repro.schedules`): the scalar
    reference.

    A scheduled scenario pins every attempt speed, so the solve is a
    one-dimensional constrained optimisation over the pattern size.
    Two-speed schedules (``TwoSpeed``, ``Constant``, and any policy
    whose canonical form reduces to them) under memoryless errors take
    :func:`_solve_two_speed`, byte-identical to the legacy solvers at
    that pair.  General schedules go through the exact attempt-series
    evaluator (:mod:`repro.schedules.evaluator`) and the numeric
    constrained solver (:func:`repro.schedules.solver.solve_schedule`).
    No scenario routes here by default: ``schedule-grid`` solves the
    same scenarios in batches, and this backend is its oracle.
    """

    name = "schedule"
    modes = frozenset({"silent", "combined", "failstop"})
    handles_schedules = True
    handles_error_models = True

    def unsupported_reason(self, scenario: "Scenario") -> str | None:
        reason = super().unsupported_reason(scenario)
        if reason is not None:
            return reason
        if scenario.schedule is None:
            return "scenario has no schedule; set Scenario(schedule=...)"
        return None

    def _solve(self, scenario: "Scenario") -> Result:
        schedule = scenario.schedule
        pair = schedule.as_two_speed()
        errors = scenario.resolved_errors()
        # The closed forms require memoryless arrivals; a general renewal
        # family takes the numeric attempt-series route.
        if pair is not None and (errors is None or errors.is_memoryless):
            return _solve_two_speed(scenario, pair, errors, self.name)

        # errors=None means silent-only at cfg.lam; the schedule solver
        # and evaluator apply that default themselves (and dispatch
        # renewal models through their per-attempt primitives).  An
        # infeasible bound propagates with the schedule's own rho_min.
        sol = solve_schedule(
            scenario.resolved_config(), schedule, scenario.rho, errors=errors
        )
        return Result(
            scenario=scenario,
            provenance=Provenance(backend=self.name),
            best=sol,
            raw=sol,
        )


class ScheduleGridBackend(SolverBackend):
    """Vectorised schedule kernel: whole batches in lockstep.

    ``solve_batch`` splits a batch two ways:

    * two-speed schedules without an error model take the Theorem-1
      closed form at their pair (:func:`_solve_two_speed`),
      byte-identical to the legacy solver;
    * every other scenario is stacked into one
      :class:`~repro.schedules.vectorized.ScheduleGrid` and solved by
      :func:`~repro.schedules.vectorized.solve_schedule_grid` — the
      per-attempt primitives, geometric tails, and the constrained
      pattern-size search all run as broadcast passes over the whole
      batch (a masked argmin instead of per-scenario SciPy loops).
      A scheduled scenario is one row; a *schedule-less* one (the
      Section-5 ``combined``/``failstop`` modes, or any explicit error
      model) enumerates its DVFS speed pairs as ``TwoSpeed`` rows, so
      a whole pair enumeration costs one lockstep pass.  General
      schedules, memoryless and renewal error models mix freely.

    Grid rows carry the :class:`~repro.schedules.solver.ScheduleSolution`
    payload and agree with the scalar oracles — the ``schedule``
    backend, and :func:`~repro.failstop.solver.solve_pair_combined` for
    the Section-5 rows — to ``1e-12`` relative on the energy objective
    and the optimiser placement tolerance (``1e-6``) on work and time;
    the equivalence tests pin this on every configuration and on
    randomized grids.
    """

    name = "schedule-grid"
    modes = frozenset({"silent", "combined", "failstop"})
    handles_schedules = True
    handles_error_models = True

    def unsupported_reason(self, scenario: "Scenario") -> str | None:
        reason = super().unsupported_reason(scenario)
        if reason is not None:
            return reason
        if scenario.schedule is None and scenario.resolved_errors() is None:
            return (
                "scenario has no schedule and no error model; set "
                "Scenario(schedule=...) or errors=..., or solve it on "
                "'firstorder'"
            )
        return None

    def _solve(self, scenario: "Scenario") -> Result:
        result = self.solve_batch([scenario])[0]
        if not result.feasible:
            raise InfeasibleBoundError(scenario.rho, result.rho_min)
        return result

    def solve_batch(self, scenarios: Sequence["Scenario"]) -> list[Result]:
        for sc in scenarios:
            self.check_supports(sc)
        t0 = time.perf_counter()
        results: list[Result | None] = [None] * len(scenarios)

        # Error-free two-speed schedules take the Theorem-1 closed form;
        # every other row joins one grid, scheduled rows first, then
        # each schedule-less scenario's block of pair rows.
        scheduled: list[int] = []
        enum: list[int] = []
        for i, sc in enumerate(scenarios):
            pair = sc.schedule.as_two_speed() if sc.schedule is not None else None
            if pair is not None and sc.resolved_errors() is None:
                try:
                    results[i] = _solve_two_speed(sc, pair, None, self.name)
                except InfeasibleBoundError as exc:
                    results[i] = self.infeasible_result(sc, exc)
            else:
                (enum if sc.schedule is None else scheduled).append(i)

        points: list[tuple] = []
        rhos: list[float] = []
        blocks: list[tuple[int, int, list[SpeedSchedule]]] = []
        for i in scheduled + enum:
            sc = scenarios[i]
            cfg = sc.resolved_config()
            errors = sc.resolved_errors()
            schedules: list[SpeedSchedule] = (
                [sc.schedule]
                if sc.schedule is not None
                else [TwoSpeed(s1, s2) for s1, s2 in _scenario_pair_axis(sc, cfg)]
            )
            if not schedules:
                # Degenerate speed restriction (speeds=()): no candidate
                # can satisfy any bound.
                results[i] = self.infeasible_result(sc)
                continue
            blocks.append((i, len(points), schedules))
            for schedule in schedules:
                points.append((cfg, schedule, errors))
                rhos.append(sc.rho)
        if points:
            sol = solve_schedule_grid(ScheduleGrid.from_points(points), np.asarray(rhos))
            # Every block's winner in one stable sort by (block, energy):
            # the feasible row with the smallest energy overhead, the first
            # of equals (the legacy solvers' strict-improvement scan in
            # s1-major order).  A block with no feasible row reports its
            # smallest rho_min.
            starts = np.array([start for _, start, _ in blocks])
            sizes = np.diff(starts, append=len(points))
            energy = np.where(sol.feasible, sol.energy_overhead, np.inf)
            order = np.lexsort((energy, np.repeat(np.arange(len(blocks)), sizes)))
            winners = order[starts].tolist()
            rho_mins = np.minimum.reduceat(sol.rho_min, starts).tolist()
            columns = {name: column.tolist() for name, column in vars(sol).items()}
            for (i, start, schedules), pos, rho_min in zip(blocks, winners, rho_mins):
                results[i] = self._materialise(
                    scenarios[i], columns, pos, schedules[pos - start], rho_min
                )

        wall = time.perf_counter() - t0
        share = wall / max(len(scenarios), 1)
        return [
            replace(
                r,
                provenance=replace(
                    r.provenance, wall_time=share, batch_size=len(scenarios)
                ),
            )
            for r in results
        ]

    def _materialise(
        self,
        scenario: "Scenario",
        columns: dict[str, list],
        pos: int,
        schedule: SpeedSchedule,
        rho_min: float,
    ) -> Result:
        """One scenario's result from its winning grid row ``pos`` (the
        :class:`~repro.schedules.vectorized.ScheduleGridSolution` fields
        as lists in ``columns``); ``rho_min`` is the infeasibility
        diagnostic when that row is infeasible."""
        if not columns["feasible"][pos]:
            return Result(
                scenario=scenario,
                provenance=Provenance(backend=self.name),
                best=None,
                rho_min=rho_min,
            )
        best = ScheduleSolution(
            schedule=schedule,
            work=columns["work"][pos],
            energy_overhead=columns["energy_overhead"][pos],
            time_overhead=columns["time_overhead"][pos],
            interval=(columns["w_lo"][pos], columns["w_hi"][pos]),
            failstop_fraction=scenario.effective_failstop_fraction,
        )
        return Result(
            scenario=scenario,
            provenance=Provenance(backend=self.name),
            best=best,
            raw=best,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend, *, replace: bool = False) -> SolverBackend:
    """Add a backend to the registry under ``backend.name``.

    Returns the backend (usable as a post-instantiation decorator
    helper).  Re-registering an existing name raises unless
    ``replace=True``; replacing invalidates the default cache's
    entries for that name so stale results from the old
    implementation never replay (private ``SolveCache`` instances are
    the caller's responsibility).
    """
    if backend.name in _REGISTRY:
        if not replace:
            raise InvalidParameterError(
                f"backend {backend.name!r} is already registered; "
                f"pass replace=True to override"
            )
        from .cache import DEFAULT_CACHE

        DEFAULT_CACHE.invalidate_backend(backend.name)
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> SolverBackend:
    """Resolve a backend by registry name.

    Raises
    ------
    UnknownBackendError
        Listing the registered names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, available_backends()) from None


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


register_backend(FirstOrderBackend())
register_backend(ExactBackend())
register_backend(ScheduleBackend())
register_backend(ScheduleGridBackend())
_REGISTRY["grid"] = _REGISTRY["firstorder"]
_REGISTRY["combined"] = _REGISTRY["schedule-grid"]
_REGISTRY["schedule-grid-jit"] = _REGISTRY["schedule-grid"]
_REGISTRY["schedule-grid-incremental"] = _REGISTRY["schedule-grid"]
