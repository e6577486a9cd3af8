"""Combined fail-stop + silent error model (Section 5 of the paper).

Section 5.2 parameterises the two error sources by a *total* rate
``lambda = 1/mu`` and the fraction ``f`` of errors that are fail-stop;
the remaining fraction ``s = 1 - f`` are silent.  The arrival rates are
then ``lambda_f = f * lambda`` and ``lambda_s = s * lambda``, and the two
processes are independent.

Semantics of the two sources (Section 5.1):

* **fail-stop** errors can strike during computation *and* verification
  (exposure window ``(W + V) / sigma``), are detected immediately, and
  interrupt the execution losing ``T_lost`` time;
* **silent** errors strike during computation only (exposure window
  ``W / sigma``) and are detected by the verification at the end of the
  pattern, so the whole ``(W + V)/sigma`` is always paid before recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import InvalidParameterError
from ..quantities import (
    ScalarOrArray,
    as_float_array,
    is_scalar,
    require_positive,
    require_probability,
)
from .exponential import ExponentialErrors, capped_exposure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .models import ErrorModel

__all__ = ["CombinedErrors"]


@dataclass(frozen=True)
class CombinedErrors:
    """Total error rate split into fail-stop and silent fractions.

    Parameters
    ----------
    total_rate:
        The combined arrival rate ``lambda`` (per second) across both
        sources.
    failstop_fraction:
        ``f`` in [0, 1]: fraction of errors that are fail-stop.  ``f = 0``
        recovers the silent-error-only model of Sections 2-4; ``f = 1``
        is the classical fail-stop setting of Theorem 2.

    Examples
    --------
    >>> m = CombinedErrors(total_rate=1e-4, failstop_fraction=0.25)
    >>> m.failstop_rate, m.silent_rate
    (2.5e-05, 7.500000000000001e-05)
    >>> m.silent_only().silent_rate == 1e-4
    True
    """

    total_rate: float
    failstop_fraction: float

    def __post_init__(self) -> None:
        require_positive(self.total_rate, "total_rate")
        require_probability(self.failstop_fraction, "failstop_fraction")

    # ------------------------------------------------------------------
    @property
    def silent_fraction(self) -> float:
        """``s = 1 - f``: fraction of errors that are silent."""
        return 1.0 - self.failstop_fraction

    @property
    def failstop_rate(self) -> float:
        """``lambda_f = f * lambda`` (per second)."""
        return self.failstop_fraction * self.total_rate

    @property
    def silent_rate(self) -> float:
        """``lambda_s = s * lambda`` (per second)."""
        return self.silent_fraction * self.total_rate

    # ------------------------------------------------------------------
    def failstop_process(self) -> ExponentialErrors:
        """The fail-stop :class:`ExponentialErrors` process.

        Raises
        ------
        InvalidParameterError
            If ``f == 0`` (there is no fail-stop process to return).
        """
        if self.failstop_rate == 0.0:
            raise InvalidParameterError(
                "failstop_fraction is 0: no fail-stop process exists"
            )
        return ExponentialErrors(rate=self.failstop_rate)

    def silent_process(self) -> ExponentialErrors:
        """The silent :class:`ExponentialErrors` process.

        Raises
        ------
        InvalidParameterError
            If ``f == 1`` (there is no silent process to return).
        """
        if self.silent_rate == 0.0:
            raise InvalidParameterError(
                "failstop_fraction is 1: no silent process exists"
            )
        return ExponentialErrors(rate=self.silent_rate)

    # ------------------------------------------------------------------
    def silent_only(self) -> "CombinedErrors":
        """The same total rate with every error silent (``f = 0``)."""
        return CombinedErrors(total_rate=self.total_rate, failstop_fraction=0.0)

    def failstop_only(self) -> "CombinedErrors":
        """The same total rate with every error fail-stop (``f = 1``)."""
        return CombinedErrors(total_rate=self.total_rate, failstop_fraction=1.0)

    def with_total_rate(self, total_rate: float) -> "CombinedErrors":
        """A copy with a different total rate (same split)."""
        return CombinedErrors(
            total_rate=total_rate, failstop_fraction=self.failstop_fraction
        )

    def to_model(self) -> "ErrorModel":
        """Lift into the renewal-model layer
        (:class:`repro.errors.models.ErrorModel` over exponential
        arrivals; the inverse of ``ErrorModel.to_combined``)."""
        from .models import ErrorModel

        return ErrorModel.from_combined(self)

    # ------------------------------------------------------------------
    # Per-attempt expectations (the speed-schedule building blocks)
    # ------------------------------------------------------------------
    def attempt_failure_probability(
        self, work: ScalarOrArray, speed: float, verification_time: float = 0.0
    ) -> ScalarOrArray:
        """Probability that one attempt at ``speed`` fails.

        An attempt fails when a fail-stop error strikes within its
        ``(W+V)/sigma`` window *or* a silent error strikes within its
        ``W/sigma`` computation window: ``p = 1 - q`` with survival
        ``q = exp(-(lambda_f (W+V)/sigma + lambda_s W/sigma))``.
        Broadcasts over ``work``; this is the per-attempt primitive the
        schedule evaluator (:mod:`repro.schedules.evaluator`) chains
        over arbitrary per-attempt speed sequences.
        """
        w = as_float_array(work)
        if np.any(w <= 0):
            raise InvalidParameterError("work must be > 0")
        if speed <= 0:
            raise InvalidParameterError("speed must be > 0")
        tau = (w + verification_time) / speed
        omega = w / speed
        p = -np.expm1(-(self.failstop_rate * tau + self.silent_rate * omega))
        return float(p) if is_scalar(work) else p

    def attempt_exposure(
        self, work: ScalarOrArray, speed: float, verification_time: float = 0.0
    ) -> ScalarOrArray:
        """Expected busy seconds of one attempt at ``speed``.

        ``E[min(T_f, tau)] = (1 - e^{-lambda_f tau}) / lambda_f`` with
        ``tau = (W+V)/sigma`` — the fail-stop-capped exposure; without
        fail-stop errors the full ``tau`` is always paid (silent errors
        are only detected by the end-of-attempt verification).
        Multiplied by the compute power this is the attempt's expected
        energy; broadcasts over ``work``.
        """
        w = as_float_array(work)
        if np.any(w <= 0):
            raise InvalidParameterError("work must be > 0")
        if speed <= 0:
            raise InvalidParameterError("speed must be > 0")
        tau = (w + verification_time) / speed
        m = capped_exposure(self.failstop_rate, tau)
        return float(m) if is_scalar(work) else m

    # ------------------------------------------------------------------
    def speed_ratio_validity_window(self) -> tuple[float, float]:
        """First-order validity window for ``sigma2 / sigma1`` (Section 5.2).

        With both sources and ``Pidle = 0`` the first-order approximation
        yields a valid optimum iff

        ``(2(1+s/f))**-0.5  <  sigma2/sigma1  <  2(1+s/f)``.

        Returns the ``(low, high)`` bounds.  With ``f = 0`` (silent only)
        the constraint vanishes, returned as ``(0, inf)``.
        """
        f = self.failstop_fraction
        if f == 0.0:
            return (0.0, float("inf"))
        s = self.silent_fraction
        high = 2.0 * (1.0 + s / f)
        return (high**-0.5, high)
