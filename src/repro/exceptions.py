"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch every model/solver failure with a single ``except`` clause while still
letting programming errors (``TypeError`` and friends) propagate untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

__all__ = [
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
    "WorkerCrashError",
    "InvalidSpecError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidParameterError(ReproError, ValueError):
    """A model parameter is outside its physical domain.

    Raised eagerly at construction time (e.g. a negative error rate, an
    empty DVFS speed set, a speed outside ``(0, +inf)``) so that invalid
    configurations never reach the solvers.
    """


class InvalidTruncationError(InvalidParameterError):
    """A truncated schedule evaluation cannot cover the schedule head.

    ``evaluate_schedule(..., max_attempts=N)`` requires ``N >= 1`` and
    ``N >= len(head)``: the exact geometric remainder reported by the
    ``tail_bound_*`` fields only holds once the attempt series has
    reached the schedule's constant tail, so the attempt budget must at
    least reach it.  Inherits :class:`InvalidParameterError` (and hence
    ``ValueError``) so legacy ``except ValueError`` call sites keep
    working.
    """

    def __init__(self, max_attempts: int, head_len: int):
        self.max_attempts = max_attempts
        self.head_len = head_len
        super().__init__(
            f"max_attempts={max_attempts!r} is not a valid truncation bound: "
            f"it must be >= 1 and cover the schedule head "
            f"({head_len} attempt(s)); the geometric tail bound only holds "
            f"on the constant tail"
        )


class InfeasibleBoundError(ReproError):
    """The BiCrit problem admits no solution for the requested bound.

    Corresponds to the ``b > -2*sqrt(a*c)`` branch of Theorem 1: for every
    available speed pair the minimum achievable time overhead
    :math:`\\rho_{i,j}` (Eq. 6) exceeds the requested ``rho``.

    The offending bound and, when available, the minimum feasible bound
    over all pairs are attached for diagnostics.
    """

    def __init__(self, rho: float, rho_min: float | None = None):
        self.rho = rho
        self.rho_min = rho_min
        if rho_min is None:
            msg = f"BiCrit is infeasible for performance bound rho={rho!r}"
        else:
            msg = (
                f"BiCrit is infeasible for performance bound rho={rho!r}; "
                f"the smallest feasible bound for this configuration is "
                f"rho_min={rho_min!r}"
            )
        super().__init__(msg)


class SpeedNotAvailableError(ReproError, ValueError):
    """A requested speed is not a member of the processor's DVFS set."""

    def __init__(self, speed: float, available: tuple[float, ...]):
        self.speed = speed
        self.available = available
        super().__init__(
            f"speed {speed!r} is not in the available DVFS set {available!r}"
        )


class ApproximationDomainError(ReproError):
    """A Taylor-expansion result is requested outside its validity domain.

    Section 5.2 of the paper shows the first-order approximation with two
    error sources is valid only when
    ``(2(1+s/f))**-0.5 < sigma2/sigma1 < 2(1+s/f)``; requesting the
    first-order optimum outside that window raises this error rather than
    silently returning a meaningless (e.g. negative-coefficient) optimum.
    """


class ConvergenceError(ReproError):
    """A numeric routine (root bracketing, minimisation) failed to converge."""


class UnknownBackendError(ReproError, KeyError):
    """A solver backend name does not resolve in the registry.

    Inherits :class:`KeyError` so registry lookups keep mapping
    semantics; the message lists the registered names.
    """

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown solver backend {name!r}; registered backends: "
            f"{', '.join(available) or '(none)'}"
        )

    # KeyError.__str__ reprs the message (wrapping it in quotes); keep
    # the plain Exception rendering for user-facing errors.
    __str__ = Exception.__str__

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Multi-arg __init__ needs explicit pickle support so the error
        # survives the Experiment.solve(processes=...) process boundary.
        return (type(self), (self.name, self.available))


class UnsupportedErrorModelError(ReproError, TypeError):
    """A closed form that requires memoryless arrivals got a renewal model.

    The paper's two-speed closed forms (Theorem 1, the Section-5
    combined expectations, the first-order windows) all rest on the
    exponential — memoryless — arrival assumption: the remaining life of
    the error process does not depend on how long the attempt has
    already run.  A general renewal model (Weibull, Gamma, trace-driven)
    breaks that step, so the entry points of :mod:`repro.failstop` and
    the two-speed fast paths raise this error instead of silently
    computing with the wrong closed form.  Callers should route such
    models through the per-attempt schedule evaluator
    (:mod:`repro.schedules`), which only needs the per-attempt renewal
    primitives — the ``schedule``/``schedule-grid`` backends do this
    automatically.

    Inherits :class:`TypeError`: passing a non-memoryless model where an
    exponential one is required is an interface misuse, not a numeric
    domain problem.
    """

    def __init__(self, where: str, model: object):
        self.where = where
        self.model = model
        spec = getattr(model, "spec", None)
        shown = spec() if callable(spec) else repr(model)
        super().__init__(
            f"{where} requires a memoryless (exponential) error model, got "
            f"{shown}; route non-exponential renewal models through the "
            f"schedule evaluator (the 'schedule-grid' backend)"
        )

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Multi-arg __init__ needs explicit pickle support so the error
        # survives the Experiment.solve(processes=...) process boundary.
        return (type(self), (self.where, self.model))


class WorkerCrashError(ReproError):
    """One or more plan shards were lost to crashed worker processes.

    Raised by :meth:`repro.api.experiment.ExecutionPlan.execute` after
    the harvest loop has drained: every shard that *did* complete was
    already written to the solve cache, so re-executing the same plan
    replays the completed shards and solves only the lost remainder.
    The warm-worker pool — behind ``transport="warm"`` and
    ``processes=N`` alike — retries a crashed shard on a healthy worker
    up to its retry bound before giving up on it, so only a shard that
    crashed its worker on every attempt is counted here.
    """

    def __init__(self, lost_shards: int, lost_scenarios: int):
        self.lost_shards = lost_shards
        self.lost_scenarios = lost_scenarios
        super().__init__(
            f"{lost_shards} shard(s) covering {lost_scenarios} scenario(s) "
            f"were lost to worker crashes; every completed shard was cached "
            f"— re-execute the plan to resume from them"
        )

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Multi-arg __init__ needs explicit pickle support so the error
        # survives a process boundary.
        return (type(self), (self.lost_shards, self.lost_scenarios))


class InvalidSpecError(ReproError, ValueError):
    """A JSON experiment spec failed validation.

    Raised by the service spec codec (:mod:`repro.service.specs`) with
    every problem found in one pass: ``issues`` is a tuple of
    ``(path, message)`` pairs where ``path`` is the JSON field path of
    the offending value (``"grid.schedules[2]"``,
    ``"scenarios[3].rho"``).  The HTTP layer maps this error to a
    ``422 Unprocessable Entity`` response carrying the field paths, so
    a malformed payload never surfaces as a 500 from deep inside
    :class:`~repro.api.scenario.Scenario` parsing.

    Inherits :class:`ValueError`: the payload, not the system, is
    wrong.
    """

    def __init__(self, issues: "Sequence[tuple[str, str]]"):
        self.issues: tuple[tuple[str, str], ...] = tuple(
            (str(path), str(message)) for path, message in issues
        )
        shown = "; ".join(f"{path}: {message}" for path, message in self.issues)
        super().__init__(
            f"invalid experiment spec ({len(self.issues)} issue(s)): {shown}"
        )

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Multi-arg __init__ needs explicit pickle support so the error
        # survives a process boundary.
        return (type(self), (self.issues,))


class UnsupportedScenarioError(ReproError):
    """A scenario was routed to a backend that cannot solve it.

    E.g. the ``firstorder`` backend only handles the first-order
    silent-error model, so a ``combined``-mode scenario must go to
    ``schedule-grid`` instead.
    """

    def __init__(self, backend: str, reason: str):
        self.backend = backend
        self.reason = reason
        super().__init__(f"backend {backend!r} cannot solve this scenario: {reason}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return (type(self), (self.backend, self.reason))
