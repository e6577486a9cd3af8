"""Unit tests for the CSV writers."""

from __future__ import annotations

import pytest

from repro.reporting.csvio import (
    read_series_csv_rows,
    write_series_csv,
    write_table_csv,
)
from repro.sweep.axes import checkpoint_axis, rho_axis
from repro.sweep.runner import run_sweep
from repro.sweep.tables import speed_pair_table


class TestSeriesCsv:
    def test_roundtrip_values(self, atlas_crusoe, tmp_path):
        series = run_sweep(atlas_crusoe, 3.0, checkpoint_axis(n=5))
        path = write_series_csv(tmp_path / "s.csv", series)
        rows = read_series_csv_rows(path)
        assert len(rows) == 5
        assert float(rows[0]["value"]) == pytest.approx(series.values[0])
        assert float(rows[0]["sigma1"]) == series.points[0].two_speed.sigma1
        assert float(rows[0]["energy_two"]) == pytest.approx(
            series.points[0].two_speed.energy_overhead
        )

    def test_infeasible_cells_empty(self, atlas_crusoe, tmp_path):
        series = run_sweep(atlas_crusoe, 3.0, rho_axis(lo=1.01, hi=3.5, n=6))
        rows = read_series_csv_rows(write_series_csv(tmp_path / "s.csv", series))
        assert rows[0]["sigma1"] == ""
        assert rows[-1]["sigma1"] != ""

    def test_creates_parent_dirs(self, atlas_crusoe, tmp_path):
        series = run_sweep(atlas_crusoe, 3.0, checkpoint_axis(n=3))
        path = write_series_csv(tmp_path / "deep" / "nested" / "s.csv", series)
        assert path.exists()


class TestTableCsv:
    def test_rows_and_best_flag(self, hera_xscale, tmp_path):
        import csv

        table = speed_pair_table(hera_xscale, 3.0)
        path = write_table_csv(tmp_path / "t.csv", table)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(hera_xscale.speeds)
        best = [r for r in rows if r["is_best"] == "1"]
        assert len(best) == 1
        assert float(best[0]["sigma1"]) == 0.4

    def test_infeasible_row_empty(self, hera_xscale, tmp_path):
        import csv

        table = speed_pair_table(hera_xscale, 3.0)
        path = write_table_csv(tmp_path / "t.csv", table)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["best_sigma2"] == ""  # sigma1 = 0.15 infeasible


class TestResultsCsv:
    """``write_results_csv`` renders each schedule / error-model object's
    spec once per call, with the bytes of the per-row rendering."""

    def test_spec_rendered_once_per_object(self, tmp_path, monkeypatch):
        import csv

        from repro.api import Experiment
        from repro.api.cache import SolveCache
        from repro.errors.models import ErrorModel
        from repro.reporting.csvio import write_results_csv
        from repro.schedules.base import Geometric

        results = Experiment.over(
            configs=("hera-xscale",),
            rhos=(2.8, 3.5, 4.0, 5.0),
            schedules=("geom:0.4,1.5,1", "geom:0.8,0.5,1,0.2"),
            error_models=("exp:mtbf=3e5", "weibull:shape=0.7,mtbf=3e5"),
        ).solve(cache=SolveCache())
        assert len(results) == 16
        path = write_results_csv(tmp_path / "results.csv", results)
        rows = list(csv.DictReader(path.open(newline="")))
        for row, r in zip(rows, results, strict=True):
            assert row["schedule"] == r.scenario.schedule.spec()
            assert row["errors"] == r.scenario.errors.spec()

        calls: list[str] = []
        for cls in (Geometric, ErrorModel):
            real = cls.spec

            def counting(self, _real=real):
                calls.append(type(self).__name__)
                return _real(self)

            monkeypatch.setattr(cls, "spec", counting)
        again = write_results_csv(tmp_path / "again.csv", results)
        assert again.read_bytes() == path.read_bytes()
        distinct = {id(r.scenario.schedule) for r in results} | {
            id(r.scenario.errors) for r in results
        }
        assert len(calls) == len(distinct) < 2 * len(results)


class TestResultsCsvStream:
    """A text stream gets the same bytes a path gets: the service renders
    its ``results.csv`` artifact in memory this way."""

    @pytest.mark.parametrize(
        "axes",
        [
            {"configs": ("hera-xscale", "atlas-crusoe"), "rhos": (1.2, 2.0, 3.0)},
            {
                "configs": ("hera-xscale",),
                "rhos": (2.8, 4.0),
                "schedules": ("geom:0.4,1.5,1", "esc:0.4,0.6,0.8"),
                "error_models": ("weibull:shape=0.7,mtbf=3e5", "weibull:shape=1.5,mtbf=3e5"),
            },
        ],
        ids=["two-speed", "schedule-x-weibull"],
    )
    def test_stream_bytes_equal_file_bytes(self, tmp_path, axes):
        import io

        from repro.api import Experiment
        from repro.api.cache import SolveCache
        from repro.reporting.csvio import write_results_csv
        from repro.service.queue import _results_csv_bytes

        results = Experiment.over(**axes).solve(cache=SolveCache())
        path = write_results_csv(tmp_path / "results.csv", results)
        stream = io.StringIO()
        assert write_results_csv(stream, results) is stream
        assert stream.getvalue().encode() == path.read_bytes()
        assert _results_csv_bytes(results) == path.read_bytes()
