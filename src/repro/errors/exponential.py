"""The capped exposure of an exponential (Poisson-arrival) error source.

The paper models both silent and fail-stop errors as Poisson processes
(Section 2.1); the arrival family itself is
:class:`repro.errors.models.ExponentialArrivals`.  This module holds the
one closed form the Section-5 formulas share with that family: the
expected busy time ``E[min(X, tau)]`` before a fail-stop arrival cuts an
attempt short.
"""

from __future__ import annotations

import numpy as np

from ..quantities import ScalarOrArray, as_float_array, is_scalar
from ..exceptions import InvalidParameterError

__all__ = ["capped_exposure"]


def capped_exposure(rate: float, window: ScalarOrArray) -> ScalarOrArray:
    """Expected busy time before the first arrival or the window's end.

    ``E[min(X, tau)] = (1 - e^{-rate * tau}) / rate`` for
    ``X ~ Exp(rate)`` and exposure ``tau = window`` — the fail-stop
    analogue of
    :meth:`repro.errors.models.ExponentialArrivals.expected_time_lost`'s setup.
    ``rate = 0`` means no arrivals: the full window is always paid.

    For ``rate * tau`` below ~1e-8 the direct ``expm1`` form loses
    precision (denormal products divide away their mantissa bits), so
    the Taylor value ``tau (1 - x/2 + x^2/6)`` is used instead — the
    same guard :meth:`ExponentialArrivals.expected_time_lost` applies.
    Broadcasts over ``window``.
    """
    tau = as_float_array(window)
    if rate < 0.0:
        raise InvalidParameterError("rate must be >= 0")
    if rate == 0.0:
        out = tau
    else:
        x = rate * tau
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = -np.expm1(-x) / rate
        series = tau * (1.0 - x / 2.0 + x * x / 6.0)
        out = np.where(x < 1e-8, series, direct)
    return float(out) if is_scalar(window) else out
