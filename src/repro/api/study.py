"""Batched evaluation: grids of scenarios solved through one engine.

A :class:`Study` is an ordered tuple of scenarios — typically the
cartesian grid configurations x rho values x modes, or the scenarios
implied by a sweep axis — solved together.  ``Study.solve``:

* consults the memo cache first (per scenario, per backend);
* routes the misses to their backends, letting batch-capable backends
  (``firstorder``, ``schedule-grid``) solve an entire group in one
  broadcast pass;
* optionally fans the misses out over worker processes for large
  grids of the expensive numeric backends.

The result is a :class:`~repro.api.result.ResultSet` aligned with the
scenario order.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from ..platforms.catalog import configuration_names
from .cache import SolveCache
from .result import ResultSet
from .scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..errors.combined import CombinedErrors
    from ..errors.models import ArrivalProcess, ErrorModel
    from ..exec.base import Transport
    from ..platforms.configuration import Configuration
    from ..schedules.base import SpeedSchedule
    from ..sweep.axes import SweepAxis

__all__ = ["Study"]


def _shard(indices: list[int], shards: int) -> list[list[int]]:
    """Split ``indices`` into at most ``shards`` contiguous chunks."""
    shards = max(1, min(shards, len(indices)))
    size = (len(indices) + shards - 1) // shards
    return [indices[j : j + size] for j in range(0, len(indices), size)]


@dataclass(frozen=True)
class Study:
    """An ordered batch of scenarios evaluated as one unit.

    Examples
    --------
    >>> study = Study.from_grid(configs=("hera-xscale",), rhos=(2.5, 3.0))
    >>> [r.best.speed_pair for r in study.solve()]
    [(0.6, 0.4), (0.4, 0.4)]
    """

    scenarios: tuple[Scenario, ...]
    name: str = "study"

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
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_grid(
        cls,
        configs: "Iterable[Configuration | str] | None" = None,
        rhos: Sequence[float] = (3.0,),
        *,
        modes: Sequence[str] = ("silent",),
        failstop_fractions: Sequence[float | None] = (None,),
        error_rates: Sequence[float | None] = (None,),
        schedules: "Sequence[SpeedSchedule | str | None]" = (None,),
        error_models: Sequence = (None,),
        backend: str | None = None,
        name: str = "grid-study",
    ) -> "Study":
        """The cartesian grid configs x rhos x modes x fractions x
        models x rates x schedules.

        ``configs`` defaults to the full eight-configuration catalog.
        Grid order is row-major in the parameter order above (the model
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
        """
        if configs is None:
            configs = configuration_names()
        elif isinstance(configs, str):
            # A lone catalog name is a config, not an iterable of them.
            configs = (configs,)
        scenarios = tuple(
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
            for rho in rhos
            for mode in modes
            for fraction in (failstop_fractions if mode == "combined" else (None,))
            for model in (error_models if mode == "silent" else (None,))
            for rate in (error_rates if model is None else (None,))
            for schedule in (schedules if mode != "single-speed" else (None,))
        )
        return cls(scenarios=scenarios, name=name)

    @classmethod
    def over_axis(
        cls,
        cfg: "Configuration",
        rho: float,
        axis: "SweepAxis",
        *,
        modes: Sequence[str] = ("silent",),
        schedule: "SpeedSchedule | str | None" = None,
        errors: "ErrorModel | ArrivalProcess | CombinedErrors | str | None" = None,
        name: str | None = None,
    ) -> "Study":
        """One scenario per (axis value, mode), axis-major order.

        Applies the axis rule to materialise the concrete
        ``(configuration, rho)`` of every point — the study equivalent
        of :func:`repro.sweep.runner.run_sweep`'s iteration.  An
        optional ``schedule`` pins the per-attempt speeds of every
        point (sweeping the model parameters *under* one policy); an
        optional ``errors`` model (object or spec string) likewise pins
        the error model of every point.
        """
        scenarios: list[Scenario] = []
        for value in axis.values:
            cfg_v, rho_v = axis.apply(cfg, rho, value)
            for mode in modes:
                scenarios.append(
                    Scenario(
                        config=cfg_v,
                        rho=rho_v,
                        mode=mode,
                        schedule=schedule,
                        errors=errors,
                        label=f"{axis.name}={value:g}",
                    )
                )
        return cls(
            scenarios=tuple(scenarios),
            name=name or f"sweep:{cfg.name}:{axis.name}",
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        backend: str | None = None,
        *,
        cache: bool | SolveCache = True,
        processes: int | None = None,
        strict: bool = False,
        transport: "Transport | str | None" = None,
    ) -> ResultSet:
        """Solve every scenario; returns results in scenario order.

        Parameters
        ----------
        backend:
            Registry name forced for *all* scenarios (raises
            :class:`UnsupportedScenarioError` if one cannot take it);
            ``None`` routes each scenario to its own backend.
        cache:
            As in :meth:`Scenario.solve`.  Cache hits skip solving
            entirely and are marked in provenance.
        processes:
            When > 1 (and no explicit ``transport``), fan the cache
            misses out over a fresh warm pool of that many worker
            processes, shut down before this call returns; a shard
            whose worker crashed is retried on a healthy one.  Misses
            routed to a batch-capable backend
            (``firstorder``, ``schedule-grid``) are sharded into contiguous
            sub-batches — each worker solves a whole shard in one
            vectorised pass — while per-scenario backends fan out one
            scenario per task.  Worth it for large grids of the
            numeric backends; the vectorised backends are often faster
            in-process for small grids.
        strict:
            When True, raise :class:`InfeasibleBoundError` if any
            scenario is infeasible instead of returning a best-less
            result for it.
        transport:
            Where the shards execute — a
            :class:`~repro.exec.base.Transport`, ``"inline"``,
            ``"warm"``, or ``None`` for the ``processes=`` semantics.
            See docs/execution.md for the
            transports and the ``fork``/``spawn`` backend-registry
            caveat that applies to all multi-process execution.
        """
        # One execution engine for studies and experiments: compile a
        # plan without dedup (a study answers every requested scenario
        # with its own cache lookup) and run it — cache replay,
        # batched-vs-per-scenario sharding, process fan-out and strict
        # handling all live in ExecutionPlan.execute.
        from .experiment import ExecutionPlan

        plan = ExecutionPlan.compile(
            self.scenarios, backend=backend, name=self.name, deduplicate=False
        )
        return plan.execute(
            cache=cache, processes=processes, strict=strict, transport=transport
        )
