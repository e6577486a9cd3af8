"""Experiment grids: grid-vs-loop consistency, axes, fan-out, strictness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment, Scenario
from repro.exceptions import InfeasibleBoundError, UnsupportedScenarioError
from repro.platforms import configuration_names
from repro.sweep.axes import checkpoint_axis, rho_axis
from repro.sweep.runner import run_sweep


class TestConstruction:
    def test_over_is_cartesian_row_major(self):
        exp = Experiment.over(
            configs=("hera-xscale", "atlas-crusoe"), rhos=(2.5, 3.0)
        )
        assert len(exp) == 4
        assert exp[0].config == "hera-xscale" and exp[0].rho == 2.5
        assert exp[1].config == "hera-xscale" and exp[1].rho == 3.0
        assert exp[3].config == "atlas-crusoe" and exp[3].rho == 3.0

    def test_over_defaults_to_full_catalog(self):
        assert len(Experiment.over()) == len(configuration_names())

    def test_over_fraction_applies_only_to_combined_mode(self):
        exp = Experiment.over(
            configs=("hera-xscale",),
            modes=("silent", "combined", "failstop"),
            failstop_fractions=(0.5,),
        )
        assert exp[0].mode == "silent" and exp[0].failstop_fraction is None
        assert exp[1].mode == "combined" and exp[1].failstop_fraction == 0.5
        assert exp[2].mode == "failstop" and exp[2].failstop_fraction is None
        assert exp[2].effective_failstop_fraction == 1.0

    def test_over_fraction_axis_does_not_duplicate_other_modes(self):
        exp = Experiment.over(
            configs=("hera-xscale",),
            modes=("combined", "failstop"),
            failstop_fractions=(0.0, 0.5, 1.0),
        )
        # 3 combined scenarios (one per fraction) + 1 failstop, no dupes.
        assert len(exp) == 4
        assert len(set(exp.scenarios)) == 4

    def test_over_accepts_single_config_name(self):
        exp = Experiment.over(configs="hera-xscale", rhos=(3.0,))
        assert len(exp) == 1
        assert exp[0].config == "hera-xscale"

    def test_over_axis_applies_rule(self, hera_xscale):
        axis = checkpoint_axis(n=3)
        exp = Experiment.over_axis(hera_xscale, 3.0, axis)
        assert len(exp) == 3
        assert exp[1].config.checkpoint_time == axis.values[1]
        assert exp.name == f"sweep:{hera_xscale.name}:{axis.name}"

    def test_over_axis_rho_axis_rebinds_bound(self, hera_xscale):
        axis = rho_axis(lo=2.0, hi=3.0, n=3)
        exp = Experiment.over_axis(hera_xscale, 3.0, axis)
        assert [sc.rho for sc in exp] == [2.0, 2.5, 3.0]


class TestGridVsLoopConsistency:
    """The acceptance-criteria test: one vectorised pass == the loop."""

    def test_full_catalog_rho_grid(self):
        rhos = (1.5, 2.0, 2.5, 3.0)
        exp = Experiment.over(configs=configuration_names(), rhos=rhos)
        loop = exp.solve(backend="firstorder", cache=False)
        grid = exp.solve(backend="grid", cache=False)
        assert len(loop) == len(grid) == 8 * len(rhos)
        for lo, gr in zip(loop, grid):
            assert lo.feasible == gr.feasible
            if lo.feasible:
                assert gr.best == lo.best  # byte-identical PatternSolutions

    def test_mixed_modes_consistent(self):
        exp = Experiment.over(
            configs=("hera-xscale", "coastal-crusoe"),
            rhos=(3.0,),
            modes=("silent", "single-speed"),
        )
        loop = exp.solve(backend="firstorder", cache=False)
        grid = exp.solve(backend="grid", cache=False)
        for lo, gr in zip(loop, grid):
            assert gr.best == lo.best

    def test_matches_run_sweep_series(self, atlas_crusoe):
        axis = checkpoint_axis(n=7)
        series = run_sweep(atlas_crusoe, 3.0, axis)
        exp = Experiment.over_axis(atlas_crusoe, 3.0, axis)
        grid = exp.solve(backend="grid", cache=False)
        for point, result in zip(series.points, grid):
            assert (point.two_speed is not None) == result.feasible
            if result.feasible:
                assert result.best == point.two_speed


class TestSolveSemantics:
    def test_mixed_default_backends(self, toy_config):
        exp = Experiment.from_scenarios(
            (
                Scenario(config=toy_config, rho=3.0),
                Scenario(
                    config=toy_config, rho=3.0, mode="combined", failstop_fraction=0.5
                ),
            )
        )
        results = exp.solve(cache=False)
        assert results.backends_used() == ("firstorder", "schedule-grid")

    def test_forced_unsupported_backend_raises(self, toy_config):
        exp = Experiment.from_scenarios(
            (
                Scenario(
                    config=toy_config, rho=3.0, mode="combined", failstop_fraction=0.5
                ),
            )
        )
        with pytest.raises(UnsupportedScenarioError):
            exp.solve(backend="grid")

    def test_infeasible_tolerated_by_default(self, hera_xscale):
        exp = Experiment.from_scenarios(
            (
                Scenario(config=hera_xscale, rho=1.0001),
                Scenario(config=hera_xscale, rho=3.0),
            )
        )
        results = exp.solve(cache=False)
        assert list(results.feasible_mask()) == [False, True]
        assert np.isnan(results.works()[0])

    def test_strict_raises_on_infeasible(self, hera_xscale):
        exp = Experiment.from_scenarios((Scenario(config=hera_xscale, rho=1.0001),))
        with pytest.raises(InfeasibleBoundError):
            exp.solve(strict=True, cache=False)

    def test_result_order_matches_scenario_order(self):
        exp = Experiment.over(configs=("coastal-xscale",), rhos=(3.0, 2.0, 2.5))
        results = exp.solve(backend="grid", cache=False)
        for sc, res in zip(exp, results):
            assert res.scenario is sc


class TestProcessFanOut:
    def test_process_pool_matches_serial(self, toy_config):
        exp = Experiment.from_scenarios(
            (
                Scenario(
                    config=toy_config, rho=3.0, mode="combined", failstop_fraction=f
                )
                for f in (0.0, 0.5, 1.0)
            )
        )
        serial = exp.solve(cache=False)
        fanned = exp.solve(cache=False, processes=2)
        for s, f in zip(serial, fanned):
            assert f.best == s.best
            assert f.provenance.backend == "schedule-grid"
