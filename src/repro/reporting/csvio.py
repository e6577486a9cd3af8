"""CSV writers for sweep series and speed-pair tables.

Plain ``csv`` module output, one row per axis value / table row, with
empty cells for infeasible entries — the files under ``results/`` that
the benches emit are regenerated through these writers.
"""

from __future__ import annotations

import csv
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence
from typing import IO, TYPE_CHECKING, Any, TypeVar, overload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import Result
    from ..sweep.runner import SweepSeries
    from ..sweep.tables import SpeedPairTable

__all__ = [
    "write_series_csv",
    "write_table_csv",
    "read_series_csv_rows",
    "write_rows_csv",
]

_SERIES_FIELDS = (
    "value",
    "sigma1",
    "sigma2",
    "work_two",
    "energy_two",
    "time_two",
    "sigma_single",
    "work_single",
    "energy_single",
)


def write_series_csv(path: str | Path, series: SweepSeries) -> Path:
    """Write one sweep series to ``path``; returns the resolved path.

    Header row first; infeasible entries are empty cells (not NaN
    strings), which round-trips cleanly through spreadsheet tools.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SERIES_FIELDS)
        for p in series.points:
            two = p.two_speed
            one = p.single_speed
            writer.writerow(
                [
                    f"{p.value:.10g}",
                    f"{two.sigma1:.6g}" if two else "",
                    f"{two.sigma2:.6g}" if two else "",
                    f"{two.work:.10g}" if two else "",
                    f"{two.energy_overhead:.10g}" if two else "",
                    f"{two.time_overhead:.10g}" if two else "",
                    f"{one.sigma1:.6g}" if one else "",
                    f"{one.work:.10g}" if one else "",
                    f"{one.energy_overhead:.10g}" if one else "",
                ]
            )
    return path


def write_table_csv(path: str | Path, table: SpeedPairTable) -> Path:
    """Write a Section-4.2 speed-pair table to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma1", "best_sigma2", "work", "energy_overhead", "is_best"])
        for row in table.rows:
            if row.feasible:
                writer.writerow(
                    [
                        f"{row.sigma1:.6g}",
                        f"{row.best_sigma2:.6g}",
                        f"{row.work:.10g}",
                        f"{row.energy_overhead:.10g}",
                        "1" if row.is_best else "0",
                    ]
                )
            else:
                writer.writerow([f"{row.sigma1:.6g}", "", "", "", "0"])
    return path


def write_rows_csv(
    path: str | Path,
    fieldnames: Sequence[str],
    rows: Iterable[Mapping[str, object]],
) -> Path:
    """Write dict rows under a fixed header — the generic writer behind
    the analysis-result exports (``FrontierResult.to_csv`` & co).

    ``None`` values and NaN floats become empty cells; floats render
    with ``%.10g`` — 10 significant digits, the precision convention of
    every writer in this module (compact cells; re-reads agree with the
    in-memory values to ~1e-10 relative, not bit-exactly — use
    ``to_json``/``to_dicts`` for full-precision round trips).
    """
    import math

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            cells = []
            for name in fieldnames:
                v = row.get(name)
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append("" if math.isnan(v) else f"{v:.10g}")
                else:
                    cells.append(str(v))
            writer.writerow(cells)
    return path


def read_series_csv_rows(path: str | Path) -> list[dict[str, str]]:
    """Read back a series CSV as a list of dict rows (round-trip tests)."""
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


_RESULT_FIELDS = (
    "config",
    "rho",
    "mode",
    "failstop_fraction",
    "error_rate",
    "errors",
    "schedule",
    "label",
    "backend",
    "cache_hit",
    "wall_time",
    "sigma1",
    "sigma2",
    "work",
    "energy_overhead",
    "time_overhead",
)


_Stream = TypeVar("_Stream", bound=IO[str])


@overload
def write_results_csv(dest: str | Path, results: "Iterable[Result]") -> Path: ...
@overload
def write_results_csv(dest: _Stream, results: "Iterable[Result]") -> _Stream: ...
def write_results_csv(
    dest: str | Path | IO[str], results: "Iterable[Result]"
) -> Path | IO[str]:
    """Write a :class:`repro.api.ResultSet` (or iterable of results),
    one row per result, scenario order.

    ``dest`` is a path (returned resolved, parents created) or an open
    text stream, written as is and returned (the service renders its
    artifact bytes this way, with no file in between).  Infeasible
    entries keep their scenario/provenance columns and leave the
    solution columns empty, mirroring :func:`write_series_csv`.
    """
    if not isinstance(dest, (str, Path)):
        _write_result_rows(dest, results)
        return dest
    path = Path(dest)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        _write_result_rows(fh, results)
    return path


def _write_result_rows(fh: IO[str], results: "Iterable[Result]") -> None:
    # Rows of one axis value share their error-model and schedule
    # objects: render each object's spec once.  The memo holds the
    # objects too, so an id is never reused within the call.
    specs: dict[int, tuple[object, str]] = {}

    def spec_of(model: Any) -> str:
        if model is None:
            return ""
        hit = specs.get(id(model))
        if hit is None:
            hit = specs[id(model)] = (model, model.spec())
        return hit[1]

    writer = csv.writer(fh)
    writer.writerow(_RESULT_FIELDS)
    for r in results:
        sc = r.scenario
        cfg = sc.config if isinstance(sc.config, str) else sc.config.name
        row = [
            cfg,
            f"{sc.rho:.10g}",
            sc.mode,
            # Effective fraction: failstop mode solves with f=1 even
            # when the field is None, and the report must say so.
            f"{sc.effective_failstop_fraction:.6g}"
            if sc.mode in ("combined", "failstop")
            else "",
            "" if sc.error_rate is None else f"{sc.error_rate:.10g}",
            spec_of(sc.errors),
            spec_of(sc.schedule),
            sc.label or "",
            r.provenance.backend,
            "1" if r.provenance.cache_hit else "0",
            f"{r.provenance.wall_time:.6g}",
        ]
        if r.feasible:
            row += [
                f"{r.best.sigma1:.6g}",
                f"{r.best.sigma2:.6g}",
                f"{r.best.work:.10g}",
                f"{r.best.energy_overhead:.10g}",
                f"{r.best.time_overhead:.10g}",
            ]
        else:
            row += ["", "", "", "", ""]
        writer.writerow(row)
