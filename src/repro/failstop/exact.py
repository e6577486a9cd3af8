"""Exact expectations with both fail-stop and silent errors (Section 5.1).

Model (paper Section 5.1): fail-stop errors (rate ``lambda_f``) strike
during computation *and* verification — exposure ``(W+V)/sigma`` — and
interrupt immediately; silent errors (rate ``lambda_s``) strike during
computation only — exposure ``W/sigma`` — and are caught by the
verification at the end.  Neither strikes during checkpoint or recovery.

Closed form (derived from the paper's recursion, Eq. 8).  Write for an
attempt at speed ``sigma``: ``tau = (W+V)/sigma``, ``omega = W/sigma``,
survival ``q(sigma) = exp(-(lambda_f tau + lambda_s omega))``, and capped
fail-stop exposure ``M(sigma) = E[min(Tf, tau)]
= (1/lambda_f)(1 - e^{-lambda_f tau})`` (``= tau`` when ``lambda_f = 0``).
Then

.. math::

    T(W,\\sigma_1,\\sigma_2) = C + \\frac{(1-q_1) R}{q_2} + M_1
                              + \\frac{(1-q_1) M_2}{q_2},

and the energy replaces each duration by duration x power:
``E = C P_{io}' + (1-q_1) R P_{io}'/q_2 + M_1 P_1 + (1-q_1) M_2 P_2/q_2``
with ``P_{io}' = Pio + Pidle`` and ``P_i = kappa sigma_i^3 + Pidle``.

.. note:: **Paper erratum.**  Equation (7) of the paper contains an extra
   ``(1-q_1) e^{\\lambda_s W/\\sigma_2} V/\\sigma_2`` term that is
   inconsistent with the paper's own recursion (Eq. 8): solving Eq. (8)
   yields the expression above, which (a) reduces exactly to
   Proposition 2 as ``lambda_f -> 0`` and (b) reproduces the paper's own
   second-order expansion (Proposition 7) — the printed Eq. (7) does
   neither.  :func:`expected_time_paper_eq7` transcribes the printed
   formula so the discrepancy is pinned down by a regression test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors.combined import CombinedErrors
from ..errors.exponential import capped_exposure
from ..errors.models import require_memoryless
from ..platforms.configuration import Configuration
from ..quantities import FloatArray, ScalarOrArray, as_float_array, is_scalar
from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedules.base import SpeedSchedule

__all__ = [
    "expected_time",
    "expected_energy",
    "time_overhead",
    "energy_overhead",
    "expected_time_paper_eq7",
    "expected_time_schedule",
    "expected_energy_schedule",
]


def _parts(
    cfg: Configuration,
    errors: CombinedErrors,
    work: ScalarOrArray,
    sigma1: float,
    sigma2: float,
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray, FloatArray]:
    """Common sub-expressions: (w, 1-q1, 1/q2, M1, M2).

    The funnel of every closed form in this module, so the
    memorylessness audit lives here: the expressions encode exponential
    survival products, and a general renewal model must go through the
    schedule evaluator instead (typed error, never a silently wrong
    number).  A *memoryless* :class:`~repro.errors.models.ErrorModel`
    converts to its :class:`CombinedErrors` (same rate and split).
    """
    errors = require_memoryless(errors, "repro.failstop.exact")
    w = as_float_array(work)
    if np.any(w <= 0):
        raise InvalidParameterError("work must be > 0")
    if sigma1 <= 0 or sigma2 <= 0:
        raise InvalidParameterError("speeds must be > 0")
    V = cfg.verification_time
    lf = errors.failstop_rate
    ls = errors.silent_rate
    tau1 = (w + V) / sigma1
    tau2 = (w + V) / sigma2
    omega1 = w / sigma1
    omega2 = w / sigma2
    one_minus_q1 = -np.expm1(-(lf * tau1 + ls * omega1))
    inv_q2 = np.exp(lf * tau2 + ls * omega2)
    # Robust E[min(Tf, tau)]: series fallback once lf*tau goes denormal.
    m1 = capped_exposure(lf, tau1)
    m2 = capped_exposure(lf, tau2)
    return w, one_minus_q1, inv_q2, m1, m2


def expected_time(
    cfg: Configuration,
    errors: CombinedErrors,
    work: ScalarOrArray,
    sigma1: float,
    sigma2: float | None = None,
) -> ScalarOrArray:
    """Exact expected pattern time with both error sources (Prop. 4 intent).

    ``errors`` supplies the fail-stop/silent split; the configuration's
    own ``error_rate`` is ignored here (callers typically build
    ``CombinedErrors(cfg.lam, f)``).  With ``f = 0`` this equals
    :func:`repro.core.exact.expected_time` exactly.
    """
    if sigma2 is None:
        sigma2 = sigma1
    w, p1, inv_q2, m1, m2 = _parts(cfg, errors, work, sigma1, sigma2)
    t = cfg.checkpoint_time + p1 * inv_q2 * cfg.recovery_time + m1 + p1 * inv_q2 * m2
    return float(t) if is_scalar(work) else t


def expected_energy(
    cfg: Configuration,
    errors: CombinedErrors,
    work: ScalarOrArray,
    sigma1: float,
    sigma2: float | None = None,
) -> ScalarOrArray:
    """Exact expected pattern energy (mJ) with both sources (Prop. 5 intent).

    A fail-stop interruption after ``t`` seconds still burned
    ``t * (kappa sigma^3 + Pidle)``, which is why the capped exposure
    ``M`` multiplies the compute power.
    """
    if sigma2 is None:
        sigma2 = sigma1
    w, p1, inv_q2, m1, m2 = _parts(cfg, errors, work, sigma1, sigma2)
    pm = cfg.power
    p_io = pm.io_total_power()
    e = (
        (cfg.checkpoint_time + p1 * inv_q2 * cfg.recovery_time) * p_io
        + m1 * pm.compute_power(sigma1)
        + p1 * inv_q2 * m2 * pm.compute_power(sigma2)
    )
    return float(e) if is_scalar(work) else e


def time_overhead(
    cfg: Configuration,
    errors: CombinedErrors,
    work: ScalarOrArray,
    sigma1: float,
    sigma2: float | None = None,
) -> ScalarOrArray:
    """Exact expected time per work unit with both sources."""
    w = as_float_array(work)
    r = expected_time(cfg, errors, work, sigma1, sigma2) / w
    return float(r) if is_scalar(work) else r


def energy_overhead(
    cfg: Configuration,
    errors: CombinedErrors,
    work: ScalarOrArray,
    sigma1: float,
    sigma2: float | None = None,
) -> ScalarOrArray:
    """Exact expected energy per work unit (mJ) with both sources."""
    w = as_float_array(work)
    r = expected_energy(cfg, errors, work, sigma1, sigma2) / w
    return float(r) if is_scalar(work) else r


def expected_time_paper_eq7(
    cfg: Configuration,
    errors: CombinedErrors,
    work: ScalarOrArray,
    sigma1: float,
    sigma2: float | None = None,
) -> ScalarOrArray:
    """Equation (7) exactly as printed in the paper (erratum witness).

    Differs from :func:`expected_time` by the spurious term
    ``(1-q1) e^{lambda_s W / sigma2} V / sigma2``; kept only so the test
    suite can document the inconsistency with recursion (8).  Requires a
    strictly positive fail-stop rate (the printed formula divides by
    ``lambda_f``).
    """
    if sigma2 is None:
        sigma2 = sigma1
    errors = require_memoryless(errors, "repro.failstop.exact.expected_time_paper_eq7")
    w = as_float_array(work)
    V = cfg.verification_time
    lf = errors.failstop_rate
    ls = errors.silent_rate
    if lf <= 0:
        raise InvalidParameterError("Eq. (7) divides by lambda_f; need failstop_fraction > 0")
    tau1 = (w + V) / sigma1
    tau2 = (w + V) / sigma2
    p1 = -np.expm1(-(lf * tau1 + ls * w / sigma1))
    t = (
        cfg.checkpoint_time
        + p1 * np.exp(lf * tau2 + ls * w / sigma2) * cfg.recovery_time
        + p1 * np.exp(ls * w / sigma2) * V / sigma2
        + (-np.expm1(-lf * tau1)) / lf
        + p1 * np.exp(ls * w / sigma2) * np.expm1(lf * tau2) / lf
    )
    return float(t) if is_scalar(work) else t


# ----------------------------------------------------------------------
# Schedule-aware numeric path (per-attempt speeds)
# ----------------------------------------------------------------------
def expected_time_schedule(
    cfg: Configuration,
    errors: CombinedErrors,
    schedule: "SpeedSchedule",
    work: ScalarOrArray,
) -> ScalarOrArray:
    """Exact expected time under a per-attempt schedule with both sources.

    The closed form above is the ``TwoSpeed`` instance of the general
    attempt recursion; arbitrary schedules are evaluated through
    :mod:`repro.schedules.evaluator`, which lifts ``errors`` to an
    :class:`~repro.errors.models.ErrorModel` over exponential arrivals
    whose per-attempt primitives are this module's ``1 - q`` and ``M``.
    """
    from ..schedules.evaluator import expected_time_schedule as _impl

    return _impl(cfg, schedule, work, errors=errors)


def expected_energy_schedule(
    cfg: Configuration,
    errors: CombinedErrors,
    schedule: "SpeedSchedule",
    work: ScalarOrArray,
) -> ScalarOrArray:
    """Exact expected energy (mJ) under a per-attempt schedule with both sources."""
    from ..schedules.evaluator import expected_energy_schedule as _impl

    return _impl(cfg, schedule, work, errors=errors)
