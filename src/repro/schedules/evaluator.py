"""Exact expectations of a pattern under an arbitrary speed schedule.

Generalises Propositions 1-5 from the two-speed model to any
:class:`~repro.schedules.base.SpeedSchedule`.  Let attempt ``k`` run at
speed ``s_k`` with failure probability ``p_k`` and expected busy time
``M_k`` (fail-stop-capped exposure), both read off the error model's
per-attempt primitives
(:meth:`repro.errors.models.ErrorModel.per_window_primitives`; every
``errors=`` input is lifted to an :class:`~repro.errors.models.ErrorModel`
first, so exponential and renewal arrivals take the same path).
Attempt ``k`` is reached with probability ``r_k = prod_{j<k} p_j``, each
failed attempt pays a recovery ``R`` and the (single) final success pays
the checkpoint ``C``, so

.. math::

    E[T] = C + \\sum_{k\\ge 1} r_k (M_k + p_k R), \\qquad
    E[E] = C P_{io} + \\sum_{k\\ge 1} r_k (M_k P(s_k) + p_k R P_{io}),

with ``P(s) = kappa s^3 + Pidle`` and ``P_{io} = Pio + Pidle``.

**Exact geometric tail.**  Every schedule is eventually constant: from
attempt ``K+1`` on (``K = len(head)``) the speed is the tail speed
``s_t``, so the remaining series is geometric with ratio ``p_t`` and
sums in closed form:

.. math::

    \\sum_{k > K} r_k (M_t + p_t R)
      = \\frac{r_{K+1}}{1 - p_t} (M_t + p_t R).

The evaluator therefore computes the *exact* expectation with
``len(head)`` explicit terms plus one closed-form tail — no truncation
error.  For the two-speed schedule (head = one attempt) this reduces
algebraically to Propositions 2/3 and to the Section-5 combined closed
forms, which the test suite pins numerically.

**Truncated mode and its tail bound.**  ``max_attempts=N`` (with
``N >= len(head)``) instead sums the first ``N`` attempts only (head
explicitly, then a finite geometric sum of ``N - K`` tail terms).  The
neglected remainder is again a geometric series, so the truncation
error is *exactly*

.. math::

    \\Delta_T(N) = \\frac{r_{K+1}\\, p_t^{\\,N-K}}{1 - p_t} (M_t + p_t R)
    \\le \\frac{p_t^{\\,N-K}}{1-p_t} (M_t + p_t R),

reported per evaluation as ``tail_bound_time`` / ``tail_bound_energy``
(and analogously for the attempt count).  Since ``p_t < 1`` for every
positive-rate model, the bound decays geometrically in ``N`` — the
"proven tail bound" that justifies truncated evaluation when a fixed
attempt budget is wanted (see ``docs/schedules.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors.models import ErrorModel, ErrorModelLike, ExponentialArrivals, as_error_model
from ..exceptions import InvalidParameterError, InvalidTruncationError
from ..platforms.configuration import Configuration
from ..quantities import ScalarOrArray, as_float_array, is_scalar
from .base import SpeedSchedule

__all__ = [
    "ScheduleExpectation",
    "evaluate_schedule",
    "expected_time_schedule",
    "expected_energy_schedule",
    "expected_reexecutions_schedule",
    "time_overhead_schedule",
    "energy_overhead_schedule",
]


@dataclass(frozen=True)
class ScheduleExpectation:
    """Expectations of one pattern under a speed schedule.

    ``time``/``energy``/``attempts`` broadcast over the ``work`` the
    evaluator was called with (scalars for scalar work).  When the
    evaluation was truncated (``truncated=True``), the ``tail_bound_*``
    fields carry the exact value of the neglected geometric remainder;
    they are ``0.0`` for exact (untruncated) evaluations.  A component
    excluded via ``components=`` is ``None`` (the solver's hot loops
    ask for one overhead at a time).
    """

    time: float | np.ndarray | None
    energy: float | np.ndarray | None
    attempts: float | np.ndarray
    truncated: bool = False
    tail_bound_time: float | np.ndarray | None = 0.0
    tail_bound_energy: float | np.ndarray | None = 0.0

    @property
    def reexecutions(self) -> float | np.ndarray:
        """Expected number of re-executions (attempts beyond the first)."""
        return self.attempts - 1.0


def evaluate_schedule(
    cfg: Configuration,
    schedule: SpeedSchedule,
    work: ScalarOrArray,
    *,
    errors: ErrorModelLike = None,
    max_attempts: int | None = None,
    components: tuple[str, ...] = ("time", "energy"),
) -> ScheduleExpectation:
    """Expected pattern time/energy/attempts under ``schedule``.

    Parameters
    ----------
    cfg:
        Platform/processor configuration (``C``, ``V``, ``R``, power
        model).
    schedule:
        The per-attempt speed policy.
    work:
        Pattern size(s); broadcasts like the ``core.exact`` functions.
    errors:
        Fail-stop/silent split: an :class:`~repro.errors.models.ErrorModel`
        or anything :func:`~repro.errors.models.as_error_model` lifts to
        one; ``None`` means silent-only at the configuration's own rate
        (the model of Sections 2-4).
    max_attempts:
        ``None`` (default) evaluates *exactly* via the closed-form
        geometric tail.  An integer ``N >= len(head) `` truncates the
        attempt series after ``N`` attempts and reports the neglected
        remainder in the ``tail_bound_*`` fields.
    components:
        Which expectations to accumulate (``"time"``, ``"energy"``).
        Excluded components come back as ``None``; the attempt count is
        always computed (it is a byproduct of the reach chain).  The
        constrained solver's minimise/bracket loops evaluate hundreds
        of points needing only one overhead each — skipping the other
        halves the per-point vector work.
    """
    w = as_float_array(work)
    if np.any(w <= 0):
        raise InvalidParameterError("work must be > 0")
    want_time = "time" in components
    want_energy = "energy" in components
    err = as_error_model(errors) or ErrorModel(ExponentialArrivals(cfg.lam))
    head, tail = schedule.normalized()
    if max_attempts is not None and (max_attempts < 1 or max_attempts < len(head)):
        raise InvalidTruncationError(max_attempts, len(head))

    V = cfg.verification_time
    R = cfg.recovery_time
    pm = cfg.power
    p_io = pm.io_total_power()

    t = np.full_like(w, float(cfg.checkpoint_time)) if want_time else None
    e = np.full_like(w, float(cfg.checkpoint_time) * p_io) if want_energy else None
    attempts = np.zeros_like(w)
    reach = np.ones_like(w)

    for s in head:
        p, m = err.per_window_primitives((w + V) / s, w / s)
        if want_time:
            t = t + reach * (m + p * R)
        if want_energy:
            e = e + reach * (m * pm.compute_power(s) + p * R * p_io)
        attempts = attempts + reach
        reach = reach * p

    # Tail: attempts len(head)+1 .. inf all run at the tail speed, so the
    # remaining series is geometric with ratio p_t and sums exactly.
    p_t, m_t = err.per_window_primitives((w + V) / tail, w / tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        # p_t == 1.0 (numerically) means re-executions never succeed: the
        # expectation diverges, matching the exp-overflow convention of
        # the closed-form modules.
        inv_gap = np.where(p_t < 1.0, 1.0 / (1.0 - p_t), np.inf)

    tail_time_unit = m_t + p_t * R if want_time else None
    tail_energy_unit = (
        m_t * pm.compute_power(tail) + p_t * R * p_io if want_energy else None
    )

    if max_attempts is None:
        geom = reach * inv_gap
        remainder = None
        attempts = attempts + geom
        bound_t: np.ndarray | None = np.zeros_like(w) if want_time else None
        bound_e: np.ndarray | None = np.zeros_like(w) if want_energy else None
        truncated = False
    else:
        n_tail = max_attempts - len(head)
        with np.errstate(over="ignore", invalid="ignore"):
            decay = p_t**n_tail
            # p_t == 1.0 makes (1 - decay) * inv_gap the 0 * inf form;
            # the divergent-expectation convention (inf, as in the
            # exact branch) is the correct limit, not NaN.
            geom = np.where(p_t < 1.0, reach * (1.0 - decay) * inv_gap, np.inf)
            remainder = np.where(p_t < 1.0, reach * decay * inv_gap, np.inf)
        attempts = attempts + geom
        bound_t = remainder * tail_time_unit if want_time else None
        bound_e = remainder * tail_energy_unit if want_energy else None
        truncated = True
    if want_time:
        t = t + geom * tail_time_unit
    if want_energy:
        e = e + geom * tail_energy_unit

    if is_scalar(work):
        return ScheduleExpectation(
            time=float(t) if want_time else None,
            energy=float(e) if want_energy else None,
            attempts=float(attempts),
            truncated=truncated,
            tail_bound_time=float(bound_t) if want_time else None,
            tail_bound_energy=float(bound_e) if want_energy else None,
        )
    return ScheduleExpectation(
        time=t,
        energy=e,
        attempts=attempts,
        truncated=truncated,
        tail_bound_time=bound_t,
        tail_bound_energy=bound_e,
    )


def expected_time_schedule(
    cfg: Configuration,
    schedule: SpeedSchedule,
    work: ScalarOrArray,
    *,
    errors: ErrorModelLike = None,
) -> ScalarOrArray:
    """Exact expected pattern time under ``schedule`` (Prop. 2 analogue)."""
    return evaluate_schedule(cfg, schedule, work, errors=errors, components=("time",)).time


def expected_energy_schedule(
    cfg: Configuration,
    schedule: SpeedSchedule,
    work: ScalarOrArray,
    *,
    errors: ErrorModelLike = None,
) -> ScalarOrArray:
    """Exact expected pattern energy (mJ) under ``schedule`` (Prop. 3 analogue)."""
    return evaluate_schedule(
        cfg, schedule, work, errors=errors, components=("energy",)
    ).energy


def expected_reexecutions_schedule(
    cfg: Configuration,
    schedule: SpeedSchedule,
    work: ScalarOrArray,
    *,
    errors: ErrorModelLike = None,
    max_attempts: int | None = None,
) -> ScalarOrArray:
    """Expected number of re-executions per pattern under ``schedule``.

    ``max_attempts`` truncates the attempt series exactly as in
    :func:`evaluate_schedule`; an attempt budget that cannot cover the
    schedule head (or is below 1, which would yield a meaningless
    negative re-execution count) raises
    :class:`~repro.exceptions.InvalidTruncationError`.
    """
    return evaluate_schedule(
        cfg, schedule, work, errors=errors, max_attempts=max_attempts, components=()
    ).reexecutions


def time_overhead_schedule(
    cfg: Configuration,
    schedule: SpeedSchedule,
    work: ScalarOrArray,
    *,
    errors: ErrorModelLike = None,
) -> ScalarOrArray:
    """Exact expected time per work unit under ``schedule``."""
    w = as_float_array(work)
    r = (
        evaluate_schedule(cfg, schedule, work, errors=errors, components=("time",)).time
        / w
    )
    return float(r) if is_scalar(work) else r


def energy_overhead_schedule(
    cfg: Configuration,
    schedule: SpeedSchedule,
    work: ScalarOrArray,
    *,
    errors: ErrorModelLike = None,
) -> ScalarOrArray:
    """Exact expected energy per work unit (mJ) under ``schedule``."""
    w = as_float_array(work)
    r = (
        evaluate_schedule(
            cfg, schedule, work, errors=errors, components=("energy",)
        ).energy
        / w
    )
    return float(r) if is_scalar(work) else r
