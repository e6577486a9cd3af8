"""Per-segment energy accounting on top of :class:`~repro.power.model.PowerModel`.

These helpers express the energy of each phase of a pattern execution
exactly as the paper does (Section 2.1):

* executing ``w`` work at speed ``sigma`` costs
  ``(w / sigma) * (Pidle + kappa * sigma**3)`` — note the well-known
  consequence that pure dynamic energy grows like ``sigma**2`` while the
  static share grows like ``1/sigma``;
* a verification is work-like, ``(V / sigma) * (Pidle + kappa sigma^3)``;
* checkpoint/recovery cost ``C * (Pidle + Pio)`` / ``R * (Pidle + Pio)``.

They are used by both the analytical energy expressions
(:mod:`repro.core.exact`, :mod:`repro.failstop.exact`) and the
Monte-Carlo simulator (:mod:`repro.simulation.engine`), guaranteeing the
two never diverge on the power model.
"""

from __future__ import annotations

from ..quantities import ScalarOrArray, as_float_array, is_scalar
from .model import PowerModel
from ..exceptions import InvalidParameterError

__all__ = [
    "compute_energy",
    "compute_time",
    "io_energy",
    "elapsed_compute_energy",
]


def compute_time(work: ScalarOrArray, speed: ScalarOrArray) -> ScalarOrArray:
    """Seconds needed to execute ``work`` units at ``speed``: ``w / sigma``."""
    w = as_float_array(work)
    s = as_float_array(speed)
    if (s <= 0).any():
        raise InvalidParameterError("speed must be > 0")
    t = w / s
    return float(t) if (is_scalar(work) and is_scalar(speed)) else t


def compute_energy(
    power: PowerModel, work: ScalarOrArray, speed: ScalarOrArray
) -> ScalarOrArray:
    """Energy (mJ) to execute ``work`` units of CPU work at ``speed``.

    ``E = (w / sigma) * (Pidle + kappa * sigma**3)``.
    Applies equally to computation and verification segments.
    """
    t = compute_time(work, speed)
    e = as_float_array(t) * power.compute_power(as_float_array(speed))
    return float(e) if (is_scalar(work) and is_scalar(speed)) else e


def elapsed_compute_energy(
    power: PowerModel, elapsed: ScalarOrArray, speed: ScalarOrArray
) -> ScalarOrArray:
    """Energy (mJ) for ``elapsed`` wall-clock seconds of computing at ``speed``.

    Used for partially executed segments: a fail-stop error interrupting
    after ``t`` seconds still burned ``t * (Pidle + kappa sigma^3)``.
    """
    t = as_float_array(elapsed)
    if (t < 0).any():
        raise InvalidParameterError("elapsed must be >= 0")
    e = t * power.compute_power(as_float_array(speed))
    return float(e) if (is_scalar(elapsed) and is_scalar(speed)) else e


def io_energy(power: PowerModel, seconds: ScalarOrArray) -> ScalarOrArray:
    """Energy (mJ) for ``seconds`` of checkpoint/recovery I/O.

    ``E = seconds * (Pidle + Pio)``.
    """
    t = as_float_array(seconds)
    if (t < 0).any():
        raise InvalidParameterError("seconds must be >= 0")
    e = t * power.io_total_power()
    return float(e) if is_scalar(seconds) else e
