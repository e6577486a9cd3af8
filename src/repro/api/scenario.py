"""Declarative problem specs: *what* to solve, decoupled from *how*.

A :class:`Scenario` is a frozen description of one BiCrit instance —
configuration, performance bound, error-model mode, optional speed
restrictions — with no solver logic of its own.  ``Scenario.solve``
routes it through the pluggable backend registry
(:mod:`repro.api.backends`) and memoises the result
(:mod:`repro.api.cache`), so a new kind of study composes out of
scenario fields instead of adding another top-level solve function.

Modes
-----
``silent``
    The paper's primary model (Sections 2-4): silent errors only,
    two-speed patterns.
``single-speed``
    The one-speed baseline (``sigma1 = sigma2`` diagonal).
``combined``
    Section 5: a fail-stop/silent mix parameterised by
    ``failstop_fraction`` in [0, 1].
``failstop``
    Sugar for the pure fail-stop limit (``failstop_fraction = 1``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

from ..errors.models import ErrorModel, ErrorModelLike, ExponentialArrivals, as_error_model
from ..exceptions import InfeasibleBoundError, InvalidParameterError
from ..platforms.catalog import get_configuration
from ..platforms.configuration import Configuration
from ..quantities import require_positive
from ..schedules.base import SpeedSchedule, as_schedule
from .backends import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import SolveCache
    from .result import Result

__all__ = ["MODES", "Scenario"]

#: The supported scenario modes.
MODES: tuple[str, ...] = ("silent", "single-speed", "combined", "failstop")

#: Modes that need a combined-error model.
_COMBINED_MODES = frozenset({"combined", "failstop"})

#: Instance-dict key of :meth:`Scenario.resolved_config`'s memo.
_CONFIG_MEMO = "_resolved_config"


@lru_cache(maxsize=256, typed=True)
def _catalog_config(name: str, error_rate: float | None) -> Configuration:
    """Catalog configuration ``name`` with the ``error_rate`` override
    applied, built once per (name, rate): a grid's rows share one
    frozen :class:`Configuration` instead of resolving it per row."""
    cfg = get_configuration(name)
    return cfg if error_rate is None else cfg.with_error_rate(error_rate)


def _resolve_cache(
    cache: "SolveCache | bool | None", default: "SolveCache | None"
) -> "SolveCache | None":
    """Map the ``cache`` argument convention to a cache object or None.

    ``True`` -> the process-wide default, ``False``/``None`` -> no
    caching, a :class:`SolveCache` -> itself.  (An *empty* SolveCache is
    falsy via ``__len__``, so truthiness tests must not be used here.)
    """
    if cache is True:
        return default
    if cache is False or cache is None:
        return None
    return cache


@dataclass(frozen=True)
class Scenario:
    """One declarative BiCrit problem instance.

    Parameters
    ----------
    config:
        A :class:`~repro.platforms.configuration.Configuration` or a
        catalog name such as ``"hera-xscale"``.
    rho:
        The performance bound (admissible expected time per work unit).
    mode:
        One of :data:`MODES`; selects the error model / baseline.
    failstop_fraction:
        ``f`` in [0, 1] for ``combined`` mode (required there;
        forced to 1 in ``failstop`` mode, 0 otherwise).
    error_rate:
        Optional override of the configuration's error rate ``lambda``.
    speeds:
        Optional restriction of the first-speed choices.
    sigma2_choices:
        Optional restriction of the re-execution-speed choices.
    schedule:
        Optional per-attempt re-execution speed policy — a
        :class:`~repro.schedules.base.SpeedSchedule` or a spec string
        such as ``"two:0.4,0.6"`` / ``"geom:0.4,1.5,1"``.  A scheduled
        scenario pins every attempt speed, so it is exclusive with the
        ``speeds``/``sigma2_choices`` enumeration restrictions.
        Scheduled scenarios route to the vectorised ``schedule-grid``
        backend, which batches whole grids in broadcast passes;
        two-speed schedules without an error model keep the Theorem-1
        closed form there, byte-identical to the legacy solver.
    errors:
        Optional explicit error model — a renewal
        :class:`~repro.errors.models.ErrorModel`, a bare
        :class:`~repro.errors.models.ArrivalProcess` (silent-only), a
        :class:`~repro.errors.combined.CombinedErrors`, or a
        spec string such as ``"weibull:shape=0.7,mtbf=5e3,failstop=0.2"``
        (see ``repro errors``).  The model carries its own rate and
        fail-stop split, so it is exclusive with ``failstop_fraction``
        / ``error_rate`` and requires the default mode.  Every model
        routes through the schedule backends — with a ``schedule`` the
        per-attempt policy is solved directly, without one the DVFS
        speed pairs are enumerated as two-speed schedules in one
        batched ``schedule-grid`` pass.  A memoryless (``exp:``) model
        solves bit for bit as the equivalent ``mode="combined"``
        scenario.
    backend:
        Preferred backend registry name; ``None`` picks
        :attr:`default_backend` (``firstorder`` for the schedule-less
        silent/single-speed model without an explicit error model,
        ``schedule-grid`` for everything else).
    label:
        Free-form tag carried into results (handy in study grids).

    Examples
    --------
    >>> Scenario(config="hera-xscale", rho=3.0).solve().best.speed_pair
    (0.4, 0.4)
    """

    config: Configuration | str
    rho: float
    mode: str = "silent"
    failstop_fraction: float | None = None
    error_rate: float | None = None
    speeds: tuple[float, ...] | None = None
    sigma2_choices: tuple[float, ...] | None = None
    schedule: SpeedSchedule | str | None = None
    errors: ErrorModelLike = None
    backend: str | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        require_positive(self.rho, "rho")
        if self.mode not in MODES:
            raise InvalidParameterError(
                f"unknown scenario mode {self.mode!r}; valid modes: {', '.join(MODES)}"
            )
        if self.schedule is not None:
            object.__setattr__(self, "schedule", as_schedule(self.schedule))
            if self.mode == "single-speed":
                raise InvalidParameterError(
                    "single-speed mode enumerates the diagonal; use a "
                    "Constant schedule with mode='silent' instead"
                )
            if self.speeds is not None or self.sigma2_choices is not None:
                raise InvalidParameterError(
                    "a schedule pins every attempt speed; speeds/"
                    "sigma2_choices restrictions do not apply"
                )
        if self.errors is not None:
            object.__setattr__(self, "errors", as_error_model(self.errors))
            if self.mode != "silent":
                raise InvalidParameterError(
                    f"an explicit error model carries its own rate and "
                    f"fail-stop split; leave mode at its default instead of "
                    f"{self.mode!r}"
                )
            if self.failstop_fraction is not None:
                raise InvalidParameterError(
                    "failstop_fraction conflicts with an explicit error "
                    "model; put failstop=f in the model spec instead"
                )
            if self.error_rate is not None:
                raise InvalidParameterError(
                    "error_rate conflicts with an explicit error model; "
                    "the model carries its own rate (mtbf=/rate=/scale=)"
                )
        if self.speeds is not None:
            object.__setattr__(self, "speeds", tuple(float(s) for s in self.speeds))
        if self.sigma2_choices is not None:
            object.__setattr__(
                self, "sigma2_choices", tuple(float(s) for s in self.sigma2_choices)
            )
        if self.error_rate is not None:
            require_positive(self.error_rate, "error_rate")
        f = self.failstop_fraction
        if f is not None and not 0.0 <= f <= 1.0:
            raise InvalidParameterError(
                f"failstop_fraction must be in [0, 1], got {f!r}"
            )
        if self.mode == "combined" and f is None:
            raise InvalidParameterError(
                "combined mode requires an explicit failstop_fraction"
            )
        if self.mode == "failstop" and f not in (None, 1.0):
            raise InvalidParameterError(
                f"failstop mode implies failstop_fraction=1, got {f!r}; "
                f"use mode='combined' for partial fractions"
            )
        if self.mode not in _COMBINED_MODES and f not in (None, 0.0):
            raise InvalidParameterError(
                f"failstop_fraction is only meaningful in combined/failstop "
                f"modes, not {self.mode!r}"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def resolved_config(self) -> Configuration:
        """The concrete configuration: catalog names resolved, the
        ``error_rate`` override applied.

        Resolved once per instance and memoised outside the dataclass
        fields (the catalog is fixed and the scenario frozen), so the
        memo stays out of ``==``, ``hash``, ``repr`` and pickles; a
        ``dataclasses.replace`` copy resolves afresh.  Catalog names
        resolve through a bounded process-wide memo keyed on (name,
        ``error_rate``), so scenarios that agree on both share one
        configuration object; a :class:`Configuration` passed in
        directly is used (or copied with the rate) per instance.
        """
        memo: Configuration | None = self.__dict__.get(_CONFIG_MEMO)
        if memo is not None:
            return memo
        cfg = self.config
        if isinstance(cfg, str):
            cfg = _catalog_config(cfg, self.error_rate)
        elif self.error_rate is not None:
            cfg = cfg.with_error_rate(self.error_rate)
        self.__dict__[_CONFIG_MEMO] = cfg
        return cfg

    def __getstate__(self) -> dict[str, object]:
        """Pickle the fields only, never the configuration memo."""
        state = dict(self.__dict__)
        state.pop(_CONFIG_MEMO, None)
        return state

    @property
    def effective_failstop_fraction(self) -> float:
        """The fail-stop fraction the mode (or explicit model) implies."""
        if self.errors is not None:
            return self.errors.failstop_fraction
        if self.mode == "failstop":
            return 1.0
        if self.mode == "combined":
            return float(self.failstop_fraction)  # validated non-None
        return 0.0

    def resolved_errors(self) -> ErrorModel | None:
        """The error model the solve runs under.

        An explicit ``errors`` model wins and comes back as it is (an
        ``exp:`` model solves bit for bit as the equivalent Section-5
        mode).  Without one, the mode decides: ``None`` for the
        silent-only modes (solvers then use the configuration's own
        rate), ``ErrorModel(ExponentialArrivals(rate), f)`` for the
        combined/failstop modes.
        """
        if self.errors is not None:
            return self.errors  # type: ignore[return-value]  # an ErrorModel since __post_init__
        if self.mode not in _COMBINED_MODES:
            return None
        rate = self.error_rate
        if rate is None:
            rate = self.resolved_config().lam
        return ErrorModel(ExponentialArrivals(rate), self.effective_failstop_fraction)

    @property
    def default_backend(self) -> str:
        """Registry name used when neither the scenario nor the caller
        names a backend: ``firstorder`` for the paper's two-speed model
        (no schedule, no explicit error model, ``silent`` or
        ``single-speed`` mode), ``schedule-grid`` for everything else."""
        if (
            self.schedule is None
            and self.errors is None
            and self.mode not in _COMBINED_MODES
        ):
            return "firstorder"
        return "schedule-grid"

    def resolve_backend_name(self, override: str | None = None) -> str:
        """The canonical registry name of the backend this scenario will
        be solved with.

        An alias (e.g. ``grid``) resolves to the ``name`` of the
        instance it points at, so plans group and caches key every
        spelling of one backend together.

        Raises
        ------
        UnknownBackendError
            When the name is not registered.
        """
        return get_backend(override or self.backend or self.default_backend).name

    def cache_key(self) -> tuple:
        """The solve-relevant identity of this scenario.

        The memo cache keys on this tuple (plus the backend name), not
        on the scenario itself: the free-form ``label`` and the
        ``backend`` *preference* cannot change a solution, so scenarios
        differing only in those share one cache entry — a study that
        labels its grid points still replays an earlier unlabelled
        solve.  Catalog names are resolved first, so
        ``Scenario(config="hera-xscale", ...)`` and the same scenario
        built from ``get_configuration("hera-xscale")`` also share an
        entry, and the ``error_rate`` override is folded into the
        resolved configuration.  Schedules hash canonically, keeping
        the ``TwoSpeed(s, s) == Constant(s)`` sharing of PR 2, and
        error models hash by their canonical (family, parameters,
        split) identity, so the same model written as different spec
        strings (``mtbf=`` vs ``scale=``) shares one entry.
        """
        return (
            "scenario",
            self.resolved_config(),
            self.rho,
            self.mode,
            self.effective_failstop_fraction,
            self.speeds,
            self.sigma2_choices,
            self.schedule,
            self.errors,
        )

    def describe(self) -> str:
        """Short human-readable tag for logs and CSV rows."""
        cfg = self.config if isinstance(self.config, str) else self.config.name
        bits = [f"{cfg}", f"rho={self.rho:g}", self.mode]
        if self.mode in _COMBINED_MODES:
            bits.append(f"f={self.effective_failstop_fraction:g}")
        if self.error_rate is not None:
            bits.append(f"lambda={self.error_rate:g}")
        if self.errors is not None:
            bits.append(self.errors.spec())
        if self.schedule is not None:
            bits.append(self.schedule.spec())
        if self.label:
            bits.append(self.label)
        return " ".join(bits)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        backend: str | None = None,
        *,
        cache: "bool | SolveCache" = True,
    ) -> "Result":
        """Solve this scenario through the backend registry.

        Parameters
        ----------
        backend:
            Registry name override; defaults to ``self.backend`` or
            :attr:`default_backend`.
        cache:
            ``True`` (default) memoises in the process-wide cache,
            ``False`` disables memoisation, and a
            :class:`~repro.api.cache.SolveCache` instance uses that
            private cache.

        Raises
        ------
        InfeasibleBoundError
            When no candidate satisfies ``rho`` (matching the legacy
            ``solve_*`` contracts).  Infeasible outcomes are cached
            like feasible ones — a repeated solve of a known-infeasible
            scenario replays the verdict (and re-raises) without
            re-solving.
        UnknownBackendError, UnsupportedScenarioError
            On bad routing.
        """
        from .cache import DEFAULT_CACHE

        name = self.resolve_backend_name(backend)
        cache_obj = _resolve_cache(cache, DEFAULT_CACHE)
        if cache_obj is not None:
            hit = cache_obj.get(self, name)
            if hit is not None:
                # Replay under *this* scenario: cache keys are canonical
                # (e.g. TwoSpeed(s, s) == Constant(s)), so the stored
                # result may carry an equivalent-but-differently-spelled
                # spec, and exports must show what the caller wrote.
                result = replace(
                    hit,
                    scenario=self,
                    provenance=replace(hit.provenance, cache_hit=True, wall_time=0.0),
                )
                return result.require()

        solver = get_backend(name)
        t0 = time.perf_counter()
        try:
            result = solver.solve(self)
        except InfeasibleBoundError as exc:
            # Infeasibility is a solve outcome, not a transient: cache
            # the best-less verdict so a repeated or resumed run never
            # re-solves a known-infeasible point, then keep the raising
            # contract.
            if cache_obj is not None:
                wall = time.perf_counter() - t0
                verdict = solver.infeasible_result(self, exc)
                verdict = replace(
                    verdict, provenance=replace(verdict.provenance, wall_time=wall)
                )
                cache_obj.put(self, name, verdict)
            raise
        wall = time.perf_counter() - t0
        result = replace(result, provenance=replace(result.provenance, wall_time=wall))
        if cache_obj is not None:
            cache_obj.put(self, name, result)
        return result.require()

    # -- grid helpers ----------------------------------------------------
    def with_rho(self, rho: float) -> "Scenario":
        """A copy of this scenario at a different bound."""
        return replace(self, rho=rho)

    def with_mode(self, mode: str) -> "Scenario":
        """A copy of this scenario in a different mode.

        The fail-stop fraction is dropped when the target mode fixes or
        has no use for it (``failstop`` implies 1, silent modes take
        none); switching *to* ``combined`` keeps the current effective
        fraction — from a silent mode there is none to keep, so a
        fraction-less scenario cannot switch to ``combined`` (the
        validation error says to supply one explicitly).
        """
        if mode == "combined":
            f = (
                self.effective_failstop_fraction
                if self.mode in _COMBINED_MODES
                else self.failstop_fraction
            )
        else:
            f = None
        return replace(self, mode=mode, failstop_fraction=f)

    def with_schedule(self, schedule: "SpeedSchedule | str | None") -> "Scenario":
        """A copy of this scenario under a different speed schedule
        (``None`` reverts to speed-pair enumeration)."""
        return replace(self, schedule=schedule)

    def with_errors(
        self, errors: ErrorModelLike
    ) -> "Scenario":
        """A copy of this scenario under a different explicit error
        model (``None`` reverts to the mode's error semantics)."""
        return replace(self, errors=errors)
