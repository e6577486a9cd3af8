"""A virtual configuration = platform x processor (+ I/O power).

Section 4.1 of the paper builds eight virtual configurations by
combining each of the four platforms of Table 1 with each of the two
processors of Table 2.  The dynamic I/O power defaults to the CPU's
dynamic power at its *lowest* speed ("the default value of Pio is set to
be equivalent to the power used when the CPU runs at the lowest speed").

:class:`Configuration` is the single object every model function takes:
it exposes the resilience parameters (``lam``, ``C``, ``V``, ``R``), the
DVFS speed set, and the assembled :class:`~repro.power.model.PowerModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..power.model import PowerModel
from ..quantities import require_nonnegative
from .platform import Platform
from .processor import Processor

__all__ = ["Configuration"]

#: Instance-dict key of :meth:`Configuration.__hash__`'s memo.
_HASH_MEMO = "_hash"


@dataclass(frozen=True)
class Configuration:
    """Everything the BiCrit model needs, in one immutable object.

    Parameters
    ----------
    platform:
        Resilience parameters (Table 1 entry or custom).
    processor:
        DVFS parameters (Table 2 entry or custom).
    io_power:
        Dynamic I/O power ``Pio`` (mW).  ``None`` (default) uses the
        paper's convention ``Pio = kappa * sigma_min**3``.

    Examples
    --------
    >>> from repro.platforms.catalog import HERA, XSCALE
    >>> cfg = Configuration(platform=HERA, processor=XSCALE)
    >>> round(cfg.io_power, 5)   # 1550 * 0.15**3
    5.23125
    >>> cfg.speeds
    (0.15, 0.4, 0.6, 0.8, 1.0)
    """

    platform: Platform
    processor: Processor
    io_power: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.io_power is None:
            default_io = self.processor.dynamic_power(self.processor.min_speed)
            object.__setattr__(self, "io_power", default_io)
        else:
            require_nonnegative(self.io_power, "io_power")

    def __hash__(self) -> int:
        """The field hash, computed once per instance.

        Every solve-cache and plan-dedup key holds a configuration, so
        its hash runs on each dict operation on a key.  The memo lives
        outside the dataclass fields (as ``Scenario.resolved_config``'s
        does), so it stays out of ``==``, ``repr`` and pickles.
        """
        memo: int | None = self.__dict__.get(_HASH_MEMO)
        if memo is None:
            memo = hash((self.platform, self.processor, self.io_power))
            self.__dict__[_HASH_MEMO] = memo
        return memo

    def __getstate__(self) -> dict[str, object]:
        """Pickle (and copy) the fields only, never the hash memo."""
        state = dict(self.__dict__)
        state.pop(_HASH_MEMO, None)
        return state

    # ------------------------------------------------------------------
    # Short accessors used pervasively by the model formulas
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """``"<Platform>/<Processor>"`` label, e.g. ``"Hera/Intel XScale"``."""
        return f"{self.platform.name}/{self.processor.name}"

    @property
    def lam(self) -> float:
        """Error rate ``lambda`` (per second)."""
        return self.platform.error_rate

    @property
    def checkpoint_time(self) -> float:
        """Checkpoint cost ``C`` (seconds)."""
        return self.platform.checkpoint_time

    @property
    def verification_time(self) -> float:
        """Verification cost ``V`` (seconds at full speed; work-like)."""
        return self.platform.verification_time

    @property
    def recovery_time(self) -> float:
        """Recovery cost ``R`` (seconds)."""
        return self.platform.recovery_time  # type: ignore[return-value]

    @property
    def speeds(self) -> tuple[float, ...]:
        """The discrete DVFS speed set ``S``."""
        return self.processor.speeds

    @property
    def power(self) -> PowerModel:
        """The assembled power model (``kappa``, ``Pidle``, ``Pio``)."""
        return PowerModel(
            kappa=self.processor.kappa,
            idle=self.processor.idle_power,
            io=self.io_power,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Sweep helpers: each returns a modified copy, used by repro.sweep.axes
    # ------------------------------------------------------------------
    def with_checkpoint_time(self, value: float) -> "Configuration":
        """Copy with ``C = value`` (and ``R`` tracking ``C``, per §4.1)."""
        return replace(self, platform=self.platform.with_checkpoint_time(value))

    def with_verification_time(self, value: float) -> "Configuration":
        """Copy with ``V = value``."""
        return replace(self, platform=self.platform.with_verification_time(value))

    def with_error_rate(self, value: float) -> "Configuration":
        """Copy with ``lambda = value``."""
        return replace(self, platform=self.platform.with_error_rate(value))

    def with_idle_power(self, value: float) -> "Configuration":
        """Copy with ``Pidle = value`` (keeps the explicit or default Pio)."""
        return replace(
            self,
            processor=self.processor.with_idle_power(value),
            io_power=self.io_power,
        )

    def with_io_power(self, value: float) -> "Configuration":
        """Copy with an explicit ``Pio = value``."""
        return replace(self, io_power=value)
