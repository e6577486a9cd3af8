"""Unit tests for the extension-artefact CSV writers."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.analysis.regions import map_regions
from repro.api import Experiment
from repro.reporting.artifacts import write_fraction_csv, write_regions_csv
from repro.sweep.axes import checkpoint_axis, error_rate_axis
from repro.sweep.fraction import sweep_failstop_fraction


def _rows(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestFrontierCsv:
    def test_roundtrip(self, hera_xscale, tmp_path):
        fr = (
            Experiment.over(configs=(hera_xscale,), rhos=np.linspace(1.1, 10.0, 30))
            .solve()
            .frontier(prune=False)
        )
        path = fr.to_csv(tmp_path / "fr.csv")
        rows = _rows(path)
        assert len(rows) == len(fr)
        assert float(rows[0]["rho"]) == pytest.approx(fr.points[0].rho)
        assert float(rows[-1]["energy_overhead"]) == pytest.approx(
            fr.points[-1].energy_overhead
        )


class TestFractionCsv:
    def test_feasible_rows(self, hera_xscale, tmp_path):
        sw = sweep_failstop_fraction(
            hera_xscale, 3.0, total_rate=5e-4, fractions=np.array([0.0, 0.5, 1.0])
        )
        rows = _rows(write_fraction_csv(tmp_path / "fs.csv", sw))
        assert len(rows) == 3
        assert all(r["sigma1"] for r in rows)

    def test_infeasible_rows_empty(self, hera_xscale, tmp_path):
        sw = sweep_failstop_fraction(hera_xscale, 1.0, fractions=np.array([0.5]))
        rows = _rows(write_fraction_csv(tmp_path / "fs.csv", sw))
        assert rows[0]["sigma1"] == ""


class TestRegionsCsv:
    def test_long_form_grid(self, hera_xscale, tmp_path):
        m = map_regions(
            hera_xscale, 3.0,
            checkpoint_axis(n=3), error_rate_axis(n=4, hi=1e-4),
        )
        rows = _rows(write_regions_csv(tmp_path / "rg.csv", m))
        assert len(rows) == 3 * 4
        # Column headers carry the axis names.
        assert "C" in rows[0] and "lambda" in rows[0]

    def test_matches_map_values(self, hera_xscale, tmp_path):
        m = map_regions(
            hera_xscale, 3.0,
            checkpoint_axis(n=3), error_rate_axis(n=3, hi=1e-4),
        )
        rows = _rows(write_regions_csv(tmp_path / "rg.csv", m))
        first = rows[0]
        assert float(first["sigma1"]) == m.sigma1[0, 0]
