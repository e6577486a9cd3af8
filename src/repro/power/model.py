"""DVFS power model: dynamic ``kappa * sigma**3``, static ``Pidle``, I/O ``Pio``.

Section 2.1 of the paper:

* computing at speed ``sigma`` draws ``Pidle + Pcpu(sigma)`` with
  ``Pcpu(sigma) = kappa * sigma**3`` (the classic cubic DVFS law of
  Yao/Demers/Shenker and Bansal/Kimbrel/Pruhs);
* checkpointing and recovery draw ``Pidle + Pio``;
* verification is CPU work, so it draws ``Pidle + Pcpu(sigma)`` too.

Units are milliwatts (Table 2 of the paper) and energies millijoules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..quantities import (
    ScalarOrArray,
    as_float_array,
    is_scalar,
    require_nonnegative,
    require_positive,
)
from ..exceptions import InvalidParameterError

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """The three-component power model of the paper.

    Parameters
    ----------
    kappa:
        Cubic dynamic-power coefficient in mW (e.g. 1550 for the Intel
        XScale, 5756 for the Transmeta Crusoe).
    idle:
        Static power ``Pidle`` in mW, paid whenever the platform is on.
    io:
        Dynamic I/O power ``Pio`` in mW, paid during checkpoint/recovery
        transfers (on top of ``Pidle``).

    Examples
    --------
    >>> pm = PowerModel(kappa=1550.0, idle=60.0, io=5.0)
    >>> pm.cpu_power(1.0)
    1550.0
    >>> pm.compute_power(1.0)  # Pidle + kappa * 1^3
    1610.0
    >>> pm.io_total_power()
    65.0
    """

    kappa: float
    idle: float
    io: float

    def __post_init__(self) -> None:
        require_positive(self.kappa, "kappa")
        require_nonnegative(self.idle, "idle")
        require_nonnegative(self.io, "io")

    # ------------------------------------------------------------------
    def cpu_power(self, speed: ScalarOrArray) -> ScalarOrArray:
        """Dynamic CPU power ``Pcpu(sigma) = kappa * sigma**3`` in mW."""
        s = as_float_array(speed)
        if (s < 0).any():
            raise InvalidParameterError("speed must be >= 0")
        p = self.kappa * s**3
        return float(p) if is_scalar(speed) else p

    def compute_power(self, speed: ScalarOrArray) -> ScalarOrArray:
        """Total power while computing at ``speed``: ``Pidle + kappa sigma^3``."""
        s = as_float_array(speed)
        p = self.idle + self.cpu_power(s)
        return float(p) if is_scalar(speed) else p

    def io_total_power(self) -> float:
        """Total power during checkpoint/recovery: ``Pidle + Pio``."""
        return self.idle + self.io

    # ------------------------------------------------------------------
    def with_idle(self, idle: float) -> "PowerModel":
        """Copy with a different static power (used by the Pidle sweeps)."""
        return replace(self, idle=idle)

    def with_io(self, io: float) -> "PowerModel":
        """Copy with a different I/O power (used by the Pio sweeps)."""
        return replace(self, io=io)
