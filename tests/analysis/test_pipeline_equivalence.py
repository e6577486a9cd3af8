"""Equivalence pins: batched analyses vs per-point scalar loops.

The frontier verb, ``run_sweep``, ``sweep_failstop_fraction``,
``optimal_pairs_by_rho``, ``parameter_elasticities`` and
``map_regions`` all solve one :class:`repro.api.Experiment` batch.
These tests pin each of them against a per-point scalar loop (one
standalone solve per point): byte-identical outputs for the
exponential two-speed cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.crossover import optimal_pairs_by_rho
from repro.analysis.regions import map_regions
from repro.analysis.sensitivity import parameter_elasticities
from repro.api import Experiment, Scenario
from repro.core.feasibility import min_performance_bound_config
from repro.core.singlespeed import solve_single_speed
from repro.core.solver import solve_bicrit
from repro.exceptions import InfeasibleBoundError
from repro.sweep.axes import AXIS_NAMES, axis_by_name, checkpoint_axis, error_rate_axis
from repro.sweep.fraction import sweep_failstop_fraction
from repro.sweep.runner import run_sweep


class TestParetoEquivalence:
    def test_byte_identical_to_per_point_loop(self, hera_xscale):
        n, rho_hi = 25, 8.0
        rho_lo = min_performance_bound_config(hera_xscale) * 1.0001
        rhos = np.linspace(rho_lo, rho_hi, n)
        frontier = (
            Experiment.over(configs=(hera_xscale,), rhos=rhos)
            .solve()
            .frontier(prune=False)
        )

        # One scalar solve per rho, with the consecutive-duplicate
        # collapse.
        expected = []
        for rho in rhos:
            try:
                sol = solve_bicrit(hera_xscale, float(rho)).best
            except InfeasibleBoundError:
                continue
            if expected:
                prev = expected[-1][1]
                if (
                    abs(prev.time_overhead - sol.time_overhead) < 1e-12
                    and abs(prev.energy_overhead - sol.energy_overhead) < 1e-12
                ):
                    continue
            expected.append((float(rho), sol))

        assert len(frontier.points) == len(expected)
        for point, (rho, sol) in zip(frontier.points, expected):
            assert point.rho == rho
            best = point.result.best
            assert best.speed_pair == sol.speed_pair
            assert best.work == sol.work
            assert best.energy_overhead == sol.energy_overhead
            assert best.time_overhead == sol.time_overhead

    def test_all_configs_round_trip(self, any_config):
        rho_lo = min_performance_bound_config(any_config) * 1.0001
        frontier = (
            Experiment.over(configs=(any_config,), rhos=np.linspace(rho_lo, 10.0, 20))
            .solve()
            .frontier(prune=False)
        )
        assert len(frontier) >= 2
        assert np.all(np.diff(frontier.energies) <= 1e-9)


class TestRunSweepEquivalence:
    @pytest.mark.parametrize("axis_name", AXIS_NAMES)
    def test_byte_identical_to_per_point_loop(self, any_config, axis_name):
        """The batched sweep equals the scalar oracle on every axis and
        every catalog configuration."""
        axis = axis_by_name(axis_name, n=7)
        series = run_sweep(any_config, 3.0, axis)
        for i, value in enumerate(axis.values):
            cfg_v, rho_v = axis.apply(any_config, 3.0, value)
            for mode, point_sol in (
                ("silent", series.points[i].two_speed),
                ("single-speed", series.points[i].single_speed),
            ):
                try:
                    expected = (
                        Scenario(config=cfg_v, rho=rho_v, mode=mode)
                        .solve(cache=False)
                        .best
                    )
                except InfeasibleBoundError:
                    expected = None
                if expected is None:
                    assert point_sol is None
                else:
                    assert point_sol.speed_pair == expected.speed_pair
                    assert point_sol.work == expected.work
                    assert point_sol.energy_overhead == expected.energy_overhead
                    assert point_sol.time_overhead == expected.time_overhead


class TestFractionEquivalence:
    def test_byte_identical_to_per_point_loop(self, hera_xscale):
        fractions = np.linspace(0.0, 1.0, 5)
        sweep = sweep_failstop_fraction(hera_xscale, 3.0, fractions=fractions)
        for i, f in enumerate(fractions):
            expected = (
                Scenario(
                    config=hera_xscale,
                    rho=3.0,
                    mode="combined",
                    failstop_fraction=float(f),
                    error_rate=hera_xscale.lam,
                )
                .solve(cache=False)
                .raw
            )
            got = sweep.solutions[i]
            assert got.sigma1 == expected.sigma1
            assert got.sigma2 == expected.sigma2
            assert got.work == expected.work
            assert got.energy_overhead == expected.energy_overhead


class TestCrossoverEquivalence:
    def test_byte_identical_to_per_point_loop(self, hera_xscale):
        intervals = optimal_pairs_by_rho(hera_xscale, 1.2, 9.0, 60)

        grid = np.linspace(1.2, 9.0, 60)
        expected = []
        current, start, prev = None, None, None
        for rho in grid:
            try:
                pair = solve_bicrit(hera_xscale, float(rho)).best.speed_pair
            except InfeasibleBoundError:
                pair = None
            if pair != current:
                if current is not None:
                    expected.append((current, float(start), float(prev)))
                current, start = pair, rho
            prev = rho
        if current is not None:
            expected.append((current, float(start), float(prev)))

        assert [(iv.pair, iv.rho_min, iv.rho_max) for iv in intervals] == expected


class TestSensitivityEquivalence:
    def test_byte_identical_to_sequential_loop(self, any_config):
        rho = 3.0
        got = parameter_elasticities(any_config, rho)

        # A sequential loop over solve_bicrit, with each perturbation
        # spelled out here rather than taken from the sweep axes.
        from repro.analysis.sensitivity import _BASE_VALUES

        perturb = {
            "C": lambda cfg, rho, v: (cfg.with_checkpoint_time(v), rho),
            "V": lambda cfg, rho, v: (cfg.with_verification_time(v), rho),
            "lambda": lambda cfg, rho, v: (cfg.with_error_rate(v), rho),
            "Pidle": lambda cfg, rho, v: (cfg.with_idle_power(v), rho),
            "Pio": lambda cfg, rho, v: (cfg.with_io_power(v), rho),
            "rho": lambda cfg, rho, v: (cfg, v),
        }
        rel_step = 0.02
        base_energy = solve_bicrit(any_config, rho).best.energy_overhead
        assert got.base_energy == base_energy
        assert tuple(got.values) == tuple(perturb)
        for name in perturb:
            base = _BASE_VALUES[name](any_config, rho)
            if base <= 0:
                assert got.values[name] is None
                continue
            try:
                cfg_hi, rho_hi = perturb[name](any_config, rho, base * (1 + rel_step))
                cfg_lo, rho_lo = perturb[name](any_config, rho, base * (1 - rel_step))
                e_hi = solve_bicrit(cfg_hi, rho_hi).best.energy_overhead
                e_lo = solve_bicrit(cfg_lo, rho_lo).best.energy_overhead
            except InfeasibleBoundError:
                assert got.values[name] is None
                continue
            expected = (math.log(e_hi) - math.log(e_lo)) / (
                math.log1p(rel_step) - math.log1p(-rel_step)
            )
            assert got.values[name] == expected


class TestRegionsEquivalence:
    @pytest.mark.parametrize("rho", [1.3, 3.0])
    def test_byte_identical_to_per_cell_loop(self, any_config, rho):
        x_axis, y_axis = checkpoint_axis(n=7), error_rate_axis(n=6, hi=1e-3)
        got = map_regions(any_config, rho, x_axis, y_axis)

        # One solve_bicrit + solve_single_speed pair per cell.
        shape = (len(x_axis), len(y_axis))
        sigma1, sigma2, savings = (np.full(shape, np.nan) for _ in range(3))
        for i, xv in enumerate(x_axis.values):
            cfg_x, rho_x = x_axis.apply(any_config, rho, xv)
            for j, yv in enumerate(y_axis.values):
                cfg_xy, rho_xy = y_axis.apply(cfg_x, rho_x, yv)
                try:
                    two = solve_bicrit(cfg_xy, rho_xy).best
                except InfeasibleBoundError:
                    continue
                sigma1[i, j], sigma2[i, j] = two.sigma1, two.sigma2
                try:
                    one = solve_single_speed(cfg_xy, rho_xy).best
                except InfeasibleBoundError:
                    continue
                savings[i, j] = (
                    1.0 - two.energy_overhead / one.energy_overhead
                ) * 100.0

        assert np.array_equal(got.sigma1, sigma1, equal_nan=True)
        assert np.array_equal(got.sigma2, sigma2, equal_nan=True)
        assert np.array_equal(got.savings, savings, equal_nan=True)
