"""Output rendering: ASCII tables, traces, CSV/JSON, reproduction reports."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".tables": ("format_speed_pair_table", "format_sweep_series", "format_savings_line"),
    ".csvio": ("write_series_csv", "write_table_csv", "write_results_csv", "read_series_csv_rows"),
    ".serialize": (
        "result_to_dict", "solution_to_dict", "solution_from_dict", "series_to_dict",
        "series_from_dict", "dump_json", "load_json",
    ),
    ".gantt": ("format_trace", "format_timeline"),
    ".summary": ("ReportResult", "build_report", "write_report"),
    ".artifacts": ("write_fraction_csv", "write_regions_csv"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .artifacts import write_fraction_csv, write_regions_csv
    from .csvio import read_series_csv_rows, write_results_csv, write_series_csv, write_table_csv
    from .gantt import format_timeline, format_trace
    from .serialize import (
        dump_json, load_json, result_to_dict, series_from_dict, series_to_dict, solution_from_dict,
        solution_to_dict,
    )
    from .summary import ReportResult, build_report, write_report
    from .tables import format_savings_line, format_speed_pair_table, format_sweep_series
