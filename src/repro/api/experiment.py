"""Composable experiment pipeline: lazy plans over the batched backends.

The paper's deliverables are *derived analyses* — Pareto frontiers of
energy vs time, savings-over-baseline curves, crossover maps — not
single solves.  An :class:`Experiment` describes the scenario grid of
such an analysis declaratively (a fluent builder over configurations,
bounds, schedules and error models), and compiles it into an
:class:`ExecutionPlan` *before* anything is solved:

* duplicate scenarios (same :meth:`~repro.api.scenario.Scenario.cache_key`
  under the same backend) are solved **once** and replayed everywhere
  they appear — the variational-execution leverage of sharing one
  deduplicated plan across many near-identical evaluations;
* the remaining unique scenarios are grouped by backend, so
  batch-capable backends (``firstorder``, ``schedule-grid``) receive whole
  groups as single broadcast passes instead of per-point loops;
* execution is sharded — optionally over worker processes — with each
  completed shard written to the solve cache immediately, so an
  interrupted run *resumes* (re-executing the plan replays the
  completed shards from cache and only solves the remainder), and an
  optional ``progress`` callback observes shard completion.

The pipeline ends in the uniform :class:`~repro.api.result.ResultSet`,
whose analysis verbs (``.frontier()``, ``.savings()``,
``.sensitivity()``, ``.crossover()`` — see :mod:`repro.analysis.verbs`)
turn the solved grid into the typed, exportable analysis objects.

Examples
--------
>>> from repro.api import Experiment
>>> fr = (
...     Experiment.over(configs=("hera-xscale",), rhos=(2.5, 3.0, 4.0))
...     .solve()
...     .frontier()
... )
>>> fr.is_monotone()
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, cast

from ..exceptions import InfeasibleBoundError, WorkerCrashError
from ..exec.base import InlineTransport, Shard, ShardOutcome, Transport, resolve_transport
from ..errors.models import as_error_model
from ..platforms.catalog import configuration_names
from ..schedules.base import as_schedule
from .backends import get_backend
from .cache import DEFAULT_CACHE, SolveCache
from .result import Result, ResultSet
from .scenario import Scenario, _resolve_cache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..errors.models import ErrorModelLike
    from ..exec.warm import WarmWorkerPool
    from ..platforms.configuration import Configuration
    from ..schedules.base import SpeedSchedule
    from ..sweep.axes import SweepAxis

__all__ = ["Experiment", "ExecutionPlan", "PlanGroup", "PlanProgress"]


def _shard(indices: list[int], shards: int) -> list[list[int]]:
    """Split ``indices`` into at most ``shards`` contiguous chunks."""
    shards = max(1, min(shards, len(indices)))
    size = (len(indices) + shards - 1) // shards
    return [indices[j : j + size] for j in range(0, len(indices), size)]


def iter_grid(
    configs: "Iterable[Configuration | str] | None" = None,
    rhos: Iterable[float] | float = (3.0,),
    *,
    modes: Sequence[str] = ("silent",),
    failstop_fractions: Sequence[float | None] = (None,),
    error_rates: Sequence[float | None] = (None,),
    schedules: "Sequence[SpeedSchedule | str | None]" = (None,),
    error_models: Sequence = (None,),
    backend: str | None = None,
) -> Iterator[Scenario]:
    """The scenarios of :meth:`Experiment.over`, lazily, row-major.

    Lazy, so a caller that caps the grid size (the service's job cap)
    can stop after ``cap + 1`` rows instead of building every scenario
    first.  The axis rules are documented on :meth:`Experiment.over`.
    """
    if configs is None:
        configs = configuration_names()
    elif isinstance(configs, str):
        # A lone catalog name is a config, not an iterable of them.
        configs = (configs,)
    # A real scalar (NumPy's included) is a one-value bound axis.
    rho_axis = tuple(rhos) if isinstance(rhos, Iterable) else (rhos,)
    # Parse each schedule / error-model spec once per axis value, not
    # once per scenario; an axis no mode uses stays unparsed.
    if any(mode != "single-speed" for mode in modes):
        schedules = tuple(as_schedule(s) for s in schedules)
    if "silent" in modes:
        error_models = tuple(as_error_model(m) for m in error_models)
    yield from (
        Scenario(
            config=cfg,
            rho=float(rho),
            mode=mode,
            failstop_fraction=fraction,
            error_rate=rate,
            schedule=schedule,
            errors=model,
            backend=backend,
        )
        for cfg in configs
        for rho in rho_axis
        for mode in modes
        for fraction in (failstop_fractions if mode == "combined" else (None,))
        for model in (error_models if mode == "silent" else (None,))
        for rate in (error_rates if model is None else (None,))
        for schedule in (schedules if mode != "single-speed" else (None,))
    )


@dataclass(frozen=True)
class PlanProgress:
    """One progress tick of :meth:`ExecutionPlan.execute`.

    Emitted after every completed *solve* shard, so a long frontier
    sweep can be observed — and, because completed shards are cached
    immediately, safely interrupted and resumed.  The counters cover
    only the work actually solved this run: cache replays are free and
    emit no ticks, so a fully-cached re-execution completes silently.
    """

    done_shards: int
    total_shards: int
    backend: str
    solved_scenarios: int
    total_scenarios: int

    @property
    def fraction(self) -> float:
        """Completed fraction of the plan's solve work in [0, 1]."""
        if self.total_scenarios == 0:
            return 1.0
        return self.solved_scenarios / self.total_scenarios


@dataclass(frozen=True)
class PlanGroup:
    """One batched backend call of an :class:`ExecutionPlan`.

    ``indices`` index into the plan's *unique* scenario tuple; every
    scenario of a group resolves to the same ``backend``, so the whole
    group can go through one ``solve_batch`` (one broadcast pass for
    the vectorised backends).
    """

    backend: str
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled, deduplicated solve plan for one experiment.

    Attributes
    ----------
    name:
        The experiment's name (carried into the result set).
    scenarios:
        Every requested scenario, in request order.
    unique:
        The deduplicated scenarios actually solved (first-occurrence
        order).  Two requested scenarios collapse into one unique entry
        when their :meth:`~repro.api.scenario.Scenario.cache_key` *and*
        resolved backend coincide — labels, backend preferences and
        equivalent spellings (catalog name vs resolved configuration,
        ``two:s,s`` vs ``const:s``) never cause a second solve.
    backend_names:
        The resolved backend per unique scenario.
    index_map:
        ``index_map[i]`` is the unique index serving requested
        scenario ``i``.
    groups:
        Unique indices grouped by backend, first-use order — the
        batched calls the plan will issue.
    """

    name: str
    scenarios: tuple[Scenario, ...]
    unique: tuple[Scenario, ...]
    backend_names: tuple[str, ...]
    index_map: tuple[int, ...]
    groups: tuple[PlanGroup, ...]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.scenarios)

    @property
    def n_unique(self) -> int:
        """Number of scenarios actually solved."""
        return len(self.unique)

    @property
    def n_deduplicated(self) -> int:
        """Requested scenarios served by another scenario's solve."""
        return len(self.scenarios) - len(self.unique)

    def describe(self) -> str:
        """Human-readable plan summary (CLI ``--explain`` style)."""
        lines = [
            f"plan {self.name!r}: {len(self.scenarios)} scenarios -> "
            f"{self.n_unique} unique solves ({self.n_deduplicated} deduplicated)"
        ]
        for group in self.groups:
            batched = get_backend(group.backend).batched
            kind = "batched" if batched else "per-scenario"
            lines.append(
                f"  {group.backend:13s} {len(group):5d} scenarios  [{kind}]"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        scenarios: Sequence[Scenario],
        *,
        backend: str | None = None,
        name: str = "experiment",
    ) -> "ExecutionPlan":
        """Build the plan for ``scenarios``.

        ``backend`` forces one registry backend for every scenario
        (validated here, so bad routing fails before any solve);
        ``None`` routes each scenario to its own default.
        """
        if backend is not None:
            solver = get_backend(backend)
            for sc in scenarios:
                solver.check_supports(sc)

        unique: list[Scenario] = []
        names: list[str] = []
        index_map: list[int] = []
        seen: dict[tuple, int] = {}
        for sc in scenarios:
            bn = sc.resolve_backend_name(backend)
            # One hash of the (nested) key per scenario.
            pos = seen.setdefault((sc.cache_key(), bn), len(unique))
            if pos == len(unique):
                unique.append(sc)
                names.append(bn)
            index_map.append(pos)

        by_backend: dict[str, list[int]] = {}
        for u, bn in enumerate(names):
            by_backend.setdefault(bn, []).append(u)
        groups = tuple(
            PlanGroup(backend=bn, indices=tuple(idxs))
            for bn, idxs in by_backend.items()
        )
        return cls(
            name=name,
            scenarios=tuple(scenarios),
            unique=tuple(unique),
            backend_names=tuple(names),
            index_map=tuple(index_map),
            groups=groups,
        )

    # ------------------------------------------------------------------
    def execute(
        self,
        *,
        cache: bool | SolveCache = True,
        processes: int | None = None,
        strict: bool = False,
        progress: Callable[[PlanProgress], None] | None = None,
        transport: "Transport | str | None" = None,
    ) -> ResultSet:
        """Run the plan; returns results in *requested* scenario order.

        Parameters
        ----------
        cache:
            As in :meth:`Scenario.solve`.  Each completed shard is
            written to the cache **the moment it lands** — infeasible
            outcomes included — so re-executing a plan interrupted by
            ``KeyboardInterrupt``, a worker crash, or a poisoned shard
            resumes from every completed shard instead of starting
            over.
        processes:
            When > 1 (and no explicit ``transport``), fan cache-miss
            shards out over a fresh
            :class:`~repro.exec.warm.WarmWorkerPool` of that many
            workers, which this call shuts down before it returns —
            on success and on error (batched backends are sharded into
            contiguous sub-batches, per-scenario backends fan out
            point-wise).  Worth it for large grids of the numeric
            backends; the vectorised backends are often faster
            in-process for small grids.
        strict:
            Raise :class:`InfeasibleBoundError` on the first
            infeasible scenario instead of returning a best-less
            result for it.
        progress:
            Optional callback receiving a :class:`PlanProgress` after
            every completed shard, in actual completion order.
        transport:
            Where the shards execute: a
            :class:`~repro.exec.base.Transport` instance, ``"inline"``,
            ``"warm"`` (the process-wide
            :func:`~repro.exec.warm.get_default_pool`), or ``None`` for
            the ``processes=`` semantics.  See docs/execution.md.

        Raises
        ------
        WorkerCrashError
            When shards were lost to crashed workers (beyond the
            pool's retry bound).  Raised only after the harvest drained
            and every completed shard was cached, so a re-execute
            solves just the lost remainder.
        """
        cache_obj = _resolve_cache(cache, DEFAULT_CACHE)
        unique_results: list[Result | None] = [None] * len(self.unique)
        # Resolving the transport is cheap (no worker spawns until
        # prepare) and its parallelism sizes the sharding below.
        tp = resolve_transport(transport, processes)
        fan_out = tp.parallelism > 1
        # ``processes=N`` alone gets a pool of its own: no worker
        # outlives this call.  (Only that case and ``transport="warm"``
        # import the warm pool, and with it ``multiprocessing``.)
        owned_pool = (
            cast("WarmWorkerPool", tp)
            if transport is None and not isinstance(tp, InlineTransport)
            else None
        )

        # Cache replay per unique scenario (dedup means one lookup per
        # distinct solve, not one per requested scenario).
        specs: list[tuple[str, list[int]]] = []
        for group in self.groups:
            misses: list[int] = []
            for u in group.indices:
                hit = (
                    cache_obj.get(self.unique[u], self.backend_names[u])
                    if cache_obj is not None
                    else None
                )
                if hit is not None:
                    unique_results[u] = replace(
                        hit,
                        scenario=self.unique[u],
                        provenance=replace(
                            hit.provenance, cache_hit=True, wall_time=0.0
                        ),
                    )
                else:
                    misses.append(u)
            if not misses:
                continue
            solver = get_backend(group.backend)
            if solver.batched:
                specs.extend(
                    (group.backend, chunk)
                    for chunk in _shard(misses, tp.parallelism if fan_out else 1)
                )
            elif fan_out:
                specs.extend((group.backend, [u]) for u in misses)
            else:
                specs.append((group.backend, misses))

        shards = [
            Shard(shard_id=pos, backend=bn, indices=tuple(idxs))
            for pos, (bn, idxs) in enumerate(specs)
        ]
        total_solved = sum(len(s) for s in shards)
        done_scenarios = 0
        done_shards = 0

        def _complete(outcome: ShardOutcome) -> None:
            nonlocal done_scenarios, done_shards
            assert outcome.results is not None
            for u, res in zip(outcome.shard.indices, outcome.results):
                unique_results[u] = res
                # Cache per shard, not at the end — and infeasible
                # results too: a killed run keeps its completed shards
                # (including known-infeasible points) and resumes from
                # them.
                if cache_obj is not None:
                    cache_obj.put(self.unique[u], self.backend_names[u], res)
            done_scenarios += len(outcome.shard)
            done_shards += 1
            if progress is not None:
                progress(
                    PlanProgress(
                        done_shards=done_shards,
                        total_shards=len(shards),
                        backend=outcome.shard.backend,
                        solved_scenarios=done_scenarios,
                        total_scenarios=total_solved,
                    )
                )

        failures: list[ShardOutcome] = []
        if shards:
            try:
                tp.prepare(self.unique)
                for shard in shards:
                    tp.submit_shard(shard)
                # Harvest in completion order: every outcome is cached
                # (and its progress tick emitted) the moment it lands,
                # and a failed shard becomes an error *outcome* rather
                # than an exception — one crashed worker or poisoned
                # shard can no longer discard the others' finished
                # work.
                for outcome in tp.as_completed():
                    if outcome.ok:
                        _complete(outcome)
                    else:
                        failures.append(outcome)
            finally:
                tp.close()
                if owned_pool is not None:
                    owned_pool.shutdown()
        if failures:
            # Deterministic shard exceptions (a raising backend) would
            # fail identically on retry — re-raise the first one
            # as-is.  Pure worker crashes aggregate into a
            # WorkerCrashError that tells the caller a re-execute
            # resumes from the cached shards.
            for outcome in failures:
                assert outcome.error is not None
                if not isinstance(outcome.error, WorkerCrashError):
                    raise outcome.error
            raise WorkerCrashError(
                len(failures), sum(len(oc.shard) for oc in failures)
            )

        # Fan the unique solves back out to the requested scenarios.
        # Dedup replays keep the requesting scenario's own spelling
        # (labels, spec strings) and are marked as replays.
        first_owner: set[int] = set()
        results: list[Result] = []
        for i, u in enumerate(self.index_map):
            res = unique_results[u]
            assert res is not None
            if u in first_owner:
                res = replace(
                    res,
                    provenance=replace(res.provenance, cache_hit=True, wall_time=0.0),
                )
            else:
                first_owner.add(u)
            if self.scenarios[i] is not self.unique[u]:
                res = replace(res, scenario=self.scenarios[i])
            results.append(res)

        if strict:
            for res in results:
                if not res.feasible:
                    raise InfeasibleBoundError(res.scenario.rho, res.rho_min)
        return ResultSet(results=tuple(results), name=self.name)


@dataclass(frozen=True)
class Experiment:
    """A lazy, composable scenario pipeline.

    Nothing is solved until :meth:`solve` (or
    :meth:`plan` + :meth:`ExecutionPlan.execute`); until then the
    experiment is a cheap frozen value that can be filtered
    (:meth:`where`), extended (:meth:`concat`) and inspected.

    Examples
    --------
    >>> exp = Experiment.over(
    ...     configs=("hera-xscale",), rhos=(2.5, 3.0),
    ...     schedules=(None, "geom:0.4,1.5,1"),
    ... )
    >>> len(exp)
    4
    >>> exp.plan().n_unique
    4
    """

    scenarios: tuple[Scenario, ...] = field(default=())
    name: str = "experiment"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def over(
        cls,
        configs: "Iterable[Configuration | str] | None" = None,
        rhos: Iterable[float] | float = (3.0,),
        *,
        modes: Sequence[str] = ("silent",),
        failstop_fractions: Sequence[float | None] = (None,),
        error_rates: Sequence[float | None] = (None,),
        schedules: "Sequence[SpeedSchedule | str | None]" = (None,),
        error_models: Sequence = (None,),
        backend: str | None = None,
        name: str = "experiment",
    ) -> "Experiment":
        """The cartesian grid configs x rhos x modes x fractions x
        models x rates x schedules.

        ``configs`` defaults to the full eight-configuration catalog; a
        lone catalog name is one config.  ``rhos`` is an iterable of
        bounds or one real scalar (NumPy scalars included).  Grid
        order is row-major in the parameter order above (the model
        axis nests *outside* the rate axis, which it suppresses), so
        the result set zips positionally against the same product.

        ``failstop_fractions`` is an axis only for the ``combined``
        mode; the other modes take no fraction (``failstop`` implies
        1), so they contribute one scenario per (config, rho, rate)
        rather than duplicating across the fraction axis.

        ``schedules`` entries may be :class:`SpeedSchedule` objects,
        spec strings (``"geom:0.4,1.5,1"``), or ``None`` for the
        speed-pair enumeration of the legacy solvers.  Like the
        fraction axis, the schedule axis only applies to modes that
        take one — ``single-speed`` enumerates the diagonal and
        contributes a single unscheduled scenario per grid point.

        ``error_models`` entries may be
        :class:`~repro.errors.models.ErrorModel` objects, spec strings
        (``"weibull:shape=0.7,mtbf=5e3,failstop=0.2"``), or ``None``
        for the mode's own error semantics.  An explicit model carries
        its own rate and split, so the axis applies only to ``silent``
        (default-mode) grid points and suppresses the ``error_rates``
        axis for its scenarios; mixed exponential/renewal model grids
        batch through the ``schedule-grid`` backend.

        Examples
        --------
        >>> exp = Experiment.over(configs=("hera-xscale",), rhos=(2.5, 3.0))
        >>> [r.best.speed_pair for r in exp.solve()]
        [(0.6, 0.4), (0.4, 0.4)]
        """
        grid = iter_grid(
            configs,
            rhos,
            modes=modes,
            failstop_fractions=failstop_fractions,
            error_rates=error_rates,
            schedules=schedules,
            error_models=error_models,
            backend=backend,
        )
        return cls(scenarios=tuple(grid), name=name)

    @classmethod
    def over_axis(
        cls,
        cfg: "Configuration",
        rho: float,
        axis: "SweepAxis",
        *,
        modes: Sequence[str] = ("silent",),
        schedule: "SpeedSchedule | str | None" = None,
        errors: "ErrorModelLike" = None,
        name: str | None = None,
    ) -> "Experiment":
        """One scenario per (axis value, mode), axis-major order.

        Applies the axis rule to materialise the concrete
        ``(configuration, rho)`` of every point — the batch equivalent
        of :func:`repro.sweep.runner.run_sweep`'s iteration.  An
        optional ``schedule`` pins the per-attempt speeds of every
        point (sweeping the model parameters *under* one policy); an
        optional ``errors`` model (object or spec string) likewise pins
        the error model of every point.
        """
        scenarios: list[Scenario] = []
        for value in axis.values:
            cfg_v, rho_v = axis.apply(cfg, rho, value)
            scenarios.extend(
                Scenario(
                    config=cfg_v,
                    rho=rho_v,
                    mode=mode,
                    schedule=schedule,
                    errors=errors,
                    label=f"{axis.name}={value:g}",
                )
                for mode in modes
            )
        return cls(scenarios=tuple(scenarios), name=name or f"sweep:{cfg.name}:{axis.name}")

    @classmethod
    def from_scenarios(
        cls, scenarios: Iterable[Scenario], *, name: str = "experiment"
    ) -> "Experiment":
        """Wrap explicit scenarios (any iterable) as an experiment."""
        return cls(scenarios=tuple(scenarios), name=name)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def where(self, predicate: Callable[[Scenario], bool]) -> "Experiment":
        """Keep only the scenarios satisfying ``predicate``.

        Examples
        --------
        >>> exp = Experiment.over(configs=("hera-xscale",), rhos=(2.0, 3.0))
        >>> len(exp.where(lambda sc: sc.rho > 2.5))
        1
        """
        return replace(
            self, scenarios=tuple(sc for sc in self.scenarios if predicate(sc))
        )

    def concat(self, other: "Experiment | Iterable[Scenario]") -> "Experiment":
        """This experiment followed by ``other``'s scenarios."""
        extra = tuple(other.scenarios if isinstance(other, Experiment) else other)
        return replace(self, scenarios=self.scenarios + extra)

    def with_name(self, name: str) -> "Experiment":
        """A renamed copy (the name flows into the result set)."""
        return replace(self, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def plan(self, backend: str | None = None) -> ExecutionPlan:
        """Compile the deduplicated :class:`ExecutionPlan` (lazy: no
        solve happens here)."""
        return ExecutionPlan.compile(self.scenarios, backend=backend, name=self.name)

    def solve(
        self,
        backend: str | None = None,
        *,
        cache: bool | SolveCache = True,
        processes: int | None = None,
        strict: bool = False,
        progress: Callable[[PlanProgress], None] | None = None,
        transport: "Transport | str | None" = None,
    ) -> ResultSet:
        """Compile and execute in one call; see
        :meth:`ExecutionPlan.execute` for the parameters."""
        return self.plan(backend).execute(
            cache=cache,
            processes=processes,
            strict=strict,
            progress=progress,
            transport=transport,
        )
