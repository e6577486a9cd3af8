"""Experiment harness: sweep axes, runner, tables and figure specs."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".axes": (
        "SweepAxis", "AXIS_NAMES", "axis_by_name", "checkpoint_axis", "verification_axis",
        "error_rate_axis", "rho_axis", "idle_power_axis", "io_power_axis",
    ),
    ".runner": ("SweepPoint", "SweepSeries", "run_sweep"),
    ".tables": ("TableRow", "SpeedPairTable", "speed_pair_table"),
    ".figures": ("FigureSpec", "FIGURES", "DEFAULT_RHO", "figure_spec", "run_figure", "run_panel"),
    ".fraction": ("FractionSweep", "sweep_failstop_fraction"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .axes import (
        AXIS_NAMES, SweepAxis, axis_by_name, checkpoint_axis, error_rate_axis, idle_power_axis,
        io_power_axis, rho_axis, verification_axis,
    )
    from .figures import DEFAULT_RHO, FIGURES, FigureSpec, figure_spec, run_figure, run_panel
    from .fraction import FractionSweep, sweep_failstop_fraction
    from .runner import SweepPoint, SweepSeries, run_sweep
    from .tables import SpeedPairTable, TableRow, speed_pair_table
