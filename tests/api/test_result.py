"""Result/ResultSet: uniform accessors, simulate hook, reporting exports."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import Experiment, Scenario
from repro.exceptions import InfeasibleBoundError
from repro.reporting.csvio import read_series_csv_rows


class TestUniformAccessors:
    def test_feasible_result(self, hera_xscale):
        res = Scenario(config=hera_xscale, rho=3.0).solve(cache=False)
        assert res.feasible
        assert res.speed_pair == (0.4, 0.4)
        assert res.work == pytest.approx(2764, abs=1)
        assert res.energy_overhead == res.best.energy_overhead
        assert res.require() is res

    def test_infeasible_result_accessors(self, hera_xscale):
        exp = Experiment.from_scenarios((Scenario(config=hera_xscale, rho=1.0001),))
        res = exp.solve(cache=False)[0]
        assert not res.feasible
        assert res.speed_pair is None
        assert math.isnan(res.work)
        assert res.rho_min is not None
        with pytest.raises(InfeasibleBoundError):
            res.require()


class TestSimulateHook:
    def test_agreement_on_toy_config(self, toy_config):
        res = Scenario(config=toy_config, rho=3.0).solve(cache=False)
        report = res.simulate(n=4000, rng=20160601)
        assert report.work == res.best.work
        assert report.sigma1 == res.best.sigma1
        assert report.agrees()

    def test_combined_mode_routes_error_model(self, toy_config):
        res = Scenario(
            config=toy_config, rho=3.0, mode="combined", failstop_fraction=0.5
        ).solve(cache=False)
        report = res.simulate(n=4000, rng=20160601)
        assert report.agrees()

    def test_infeasible_simulate_raises(self, hera_xscale):
        exp = Experiment.from_scenarios((Scenario(config=hera_xscale, rho=1.0001),))
        res = exp.solve(cache=False)[0]
        with pytest.raises(InfeasibleBoundError):
            res.simulate(n=10)


class TestReportingExports:
    def test_to_dict_roundtrips_scenario_fields(self, hera_xscale):
        res = Scenario(config=hera_xscale, rho=3.0, label="t").solve(cache=False)
        payload = res.to_dict()
        assert payload["schema"] == "repro/api-result/v1"
        assert payload["scenario"]["rho"] == 3.0
        assert payload["scenario"]["label"] == "t"
        assert payload["provenance"]["backend"] == "firstorder"
        assert payload["best"]["sigma1"] == 0.4
        # PatternSolution bests keep the full solution schema.
        assert payload["best"]["schema"] == "repro/pattern-solution/v1"

    def test_exact_best_serialises_generic_fields(self, hera_xscale):
        res = Scenario(config=hera_xscale, rho=3.0).solve(
            backend="exact", cache=False
        )
        payload = res.to_dict()
        assert set(payload["best"]) == {
            "sigma1",
            "sigma2",
            "work",
            "energy_overhead",
            "time_overhead",
        }

    def test_resultset_csv(self, tmp_path):
        exp = Experiment.over(configs=("hera-xscale",), rhos=(1.0001, 3.0))
        results = exp.solve(backend="grid", cache=False)
        path = results.to_csv(tmp_path / "results.csv")
        rows = read_series_csv_rows(path)
        assert len(rows) == 2
        assert rows[0]["sigma1"] == ""  # infeasible row keeps empty cells
        assert rows[1]["config"] == "hera-xscale"
        assert rows[1]["backend"] == "firstorder"  # "grid" is its alias
        assert float(rows[1]["work"]) == pytest.approx(2764, abs=1)

    def test_resultset_csv_records_grid_axes(self, tmp_path, toy_config):
        exp = Experiment.over(
            configs=(toy_config,),
            modes=("combined",),
            failstop_fractions=(0.0, 1.0),
            error_rates=(2e-3,),
        )
        results = exp.solve(cache=False)
        rows = read_series_csv_rows(results.to_csv(tmp_path / "grid.csv"))
        assert [r["failstop_fraction"] for r in rows] == ["0", "1"]
        assert [r["error_rate"] for r in rows] == ["0.002", "0.002"]

    def test_resultset_array_accessors(self):
        exp = Experiment.over(configs=("hera-xscale",), rhos=(2.5, 3.0))
        results = exp.solve(cache=False)
        assert results.works().shape == (2,)
        assert np.all(np.isfinite(results.energy_overheads()))
        assert results.speed_pairs()[1] == (0.4, 0.4)
