"""CSV writers for the extension artefacts (fraction sweep, region map).

Companions to :mod:`repro.reporting.csvio` for the result types the
extension studies produce; same conventions (header row, empty cells
for infeasible entries, parents created on demand).  A frontier writes
itself: ``FrontierResult.to_csv``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..analysis.regions import RegionMap
from ..sweep.fraction import FractionSweep

__all__ = ["write_fraction_csv", "write_regions_csv"]


def _open(path: str | Path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def write_fraction_csv(path: str | Path, sweep: FractionSweep) -> Path:
    """One row per fail-stop fraction; empty cells where infeasible."""
    p = _open(path)
    with p.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fraction", "sigma1", "sigma2", "work", "energy_overhead", "time_overhead"])
        for f, sol in zip(sweep.fractions, sweep.solutions):
            if sol is None:
                w.writerow([f"{f:.6g}", "", "", "", "", ""])
            else:
                w.writerow([
                    f"{f:.6g}",
                    f"{sol.sigma1:.6g}",
                    f"{sol.sigma2:.6g}",
                    f"{sol.work:.10g}",
                    f"{sol.energy_overhead:.10g}",
                    f"{sol.time_overhead:.10g}",
                ])
    return p


def write_regions_csv(path: str | Path, regions: RegionMap) -> Path:
    """Long-form grid: one row per (x, y) cell."""
    p = _open(path)
    with p.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([regions.x_name, regions.y_name, "sigma1", "sigma2", "savings_percent"])
        for i, xv in enumerate(regions.x_values):
            for j, yv in enumerate(regions.y_values):
                s1 = regions.sigma1[i, j]
                if np.isnan(s1):
                    w.writerow([f"{xv:.10g}", f"{yv:.10g}", "", "", ""])
                else:
                    sav = regions.savings[i, j]
                    w.writerow([
                        f"{xv:.10g}",
                        f"{yv:.10g}",
                        f"{s1:.6g}",
                        f"{regions.sigma2[i, j]:.6g}",
                        f"{sav:.6g}" if np.isfinite(sav) else "",
                    ])
    return p
