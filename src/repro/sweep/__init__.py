"""Experiment harness: sweep axes, runner, tables and figure specs."""

from .axes import (
    AXIS_NAMES,
    SweepAxis,
    axis_by_name,
    checkpoint_axis,
    error_rate_axis,
    idle_power_axis,
    io_power_axis,
    rho_axis,
    verification_axis,
)
from .figures import (
    DEFAULT_RHO,
    FIGURES,
    FigureSpec,
    figure_spec,
    run_figure,
    run_panel,
)
from .fraction import FractionSweep, sweep_failstop_fraction
from .runner import SweepPoint, SweepSeries, run_sweep
from .tables import SpeedPairTable, TableRow, speed_pair_table

__all__ = [
    "SweepAxis",
    "AXIS_NAMES",
    "axis_by_name",
    "checkpoint_axis",
    "verification_axis",
    "error_rate_axis",
    "rho_axis",
    "idle_power_axis",
    "io_power_axis",
    "SweepPoint",
    "SweepSeries",
    "run_sweep",
    "TableRow",
    "SpeedPairTable",
    "speed_pair_table",
    "FigureSpec",
    "FIGURES",
    "DEFAULT_RHO",
    "figure_spec",
    "run_figure",
    "run_panel",
    "FractionSweep",
    "sweep_failstop_fraction",
]
