"""Sweep-shaped batches on the cold ``schedule-grid`` solver.

A rho sweep repeats one (configuration, schedule, error model) row
under many bounds; :func:`~repro.schedules.vectorized.solve_schedule_grid`
runs its rho-independent stage once per distinct row and gathers the
result back.  Unit-level pins (``tests/properties/test_prop_sweeps.py``
fuzzes the same contracts over random schedules and error models):

* across the whole platform catalog, a rho sweep shares one finite
  ``rho_min``, is feasible exactly from it on, and never gets dearer
  as the bound loosens; a rate sweep gets strictly dearer;
* shuffled, repeated and two-axis sweeps solve bit for bit like the
  sorted single sweep;
* the bound broadcasts from a scalar and must be positive;
* an :class:`~repro.api.Experiment` over a shuffled grid returns its
  results in scenario order under every spelling of the backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment, Scenario
from repro.api.backends import get_backend
from repro.errors import CombinedErrors
from repro.exceptions import InvalidParameterError
from repro.platforms import configuration_names, get_configuration
from repro.schedules import ScheduleGrid, parse_schedule, solve_schedule_grid

SCHEDULE = parse_schedule("geom:0.4,1.5,1")

#: Relative slack on "never grows": two feasible intervals of one row
#: polish the same flat minimum to within a few ulps.
MONOTONE_RTOL = 1e-12

FIELDS = (
    "work", "energy_overhead", "time_overhead", "w_lo", "w_hi",
    "rho_min", "feasible",
)


def _sweep(cfg, n):
    return ScheduleGrid.from_points([(cfg, SCHEDULE, None)] * n)


def _assert_rows_equal(sol, ref, idx=slice(None)):
    for field in FIELDS:
        assert np.array_equal(
            getattr(sol, field), getattr(ref, field)[idx], equal_nan=True
        ), field


class TestCatalogSweeps:
    @pytest.mark.parametrize("name", configuration_names())
    def test_rho_sweep(self, name):
        """From rho = 1 (infeasible everywhere in the catalog) up to a
        slack bound: one ``rho_min``, feasibility from it on, energy
        non-increasing, every feasible optimum inside its bound."""
        n = 64
        rhos = np.linspace(1.0, 5.5, n)
        sol = solve_schedule_grid(_sweep(get_configuration(name), n), rhos)
        assert np.unique(sol.rho_min).size == 1
        assert np.all(np.isfinite(sol.rho_min))
        assert np.array_equal(sol.feasible, rhos >= sol.rho_min)
        assert not sol.feasible[0] and sol.feasible[-1]
        assert np.all(np.isnan(sol.work[~sol.feasible]))
        assert np.all(np.isnan(sol.energy_overhead[~sol.feasible]))
        energy = sol.energy_overhead[sol.feasible]
        assert np.all(np.diff(energy) <= MONOTONE_RTOL * energy[:-1])
        feasible_rhos = rhos[sol.feasible]
        assert np.all(sol.time_overhead[sol.feasible] <= feasible_rhos * (1 + 1e-9))

    @pytest.mark.parametrize("name", configuration_names())
    def test_rate_sweep(self, name):
        """A combined-model rate sweep at fixed rho: each step up in
        the error rate raises ``rho_min`` and the optimal energy."""
        cfg = get_configuration(name)
        rates = np.logspace(-6, -4, 16)
        grid = ScheduleGrid.from_points(
            [(cfg, SCHEDULE, CombinedErrors(float(rate), 0.5)) for rate in rates]
        )
        sol = solve_schedule_grid(grid, 3.5)
        assert np.all(np.diff(sol.rho_min) > 0)
        assert sol.feasible[0]
        # Feasibility is a prefix of the ascending-rate sweep.
        assert np.all(np.diff(sol.feasible.astype(int)) <= 0)
        assert np.all(np.diff(sol.energy_overhead[sol.feasible]) > 0)


class TestSweepShapes:
    def test_scrambled_order_is_a_permutation(self, hera_xscale):
        n = 48
        rhos = np.linspace(2.8, 5.0, n)
        perm = np.random.default_rng(7).permutation(n)
        ordered = solve_schedule_grid(_sweep(hera_xscale, n), rhos)
        scrambled = solve_schedule_grid(_sweep(hera_xscale, n), rhos[perm])
        _assert_rows_equal(scrambled, ordered, perm)

    def test_repeated_sweep_equals_one_copy(self, hera_xscale):
        """Stage 1 is shared between non-adjacent repeats of a row."""
        n = 20
        rhos = np.linspace(2.8, 5.0, n)
        once = solve_schedule_grid(_sweep(hera_xscale, n), rhos)
        twice = solve_schedule_grid(
            _sweep(hera_xscale, 2 * n), np.concatenate([rhos, rhos[::-1]])
        )
        _assert_rows_equal(once, twice, slice(0, n))
        _assert_rows_equal(once, twice, slice(2 * n - 1, n - 1, -1))

    def test_two_axis_grid_equals_per_rate_sweeps(self, hera_xscale):
        rates = np.logspace(-6, -4, 4)
        n_rhos = 24
        sweep_rhos = np.linspace(2.8, 5.0, n_rhos)
        points = [
            (hera_xscale.with_error_rate(float(rate)), SCHEDULE, None)
            for rate in rates
            for _ in range(n_rhos)
        ]
        grid = solve_schedule_grid(
            ScheduleGrid.from_points(points), np.tile(sweep_rhos, len(rates))
        )
        for k, rate in enumerate(rates):
            single = solve_schedule_grid(
                _sweep(hera_xscale.with_error_rate(float(rate)), n_rhos), sweep_rhos
            )
            _assert_rows_equal(single, grid, slice(k * n_rhos, (k + 1) * n_rhos))

    def test_scalar_rho_broadcasts(self, hera_xscale):
        scalar = solve_schedule_grid(_sweep(hera_xscale, 12), 3.0)
        assert scalar.feasible.shape == (12,)
        assert np.all(scalar.feasible)
        full = solve_schedule_grid(_sweep(hera_xscale, 12), np.full(12, 3.0))
        _assert_rows_equal(scalar, full)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_rho_rejected(self, hera_xscale, bad):
        with pytest.raises(InvalidParameterError, match="rho"):
            solve_schedule_grid(
                _sweep(hera_xscale, 4), np.array([3.0, bad, 3.0, 3.0])
            )


def _shuffled_grid() -> list[Scenario]:
    scenarios = [
        Scenario(config="hera-xscale", rho=float(rho), error_rate=rate,
                 schedule=SCHEDULE)
        for rate in (None, 1e-5, 3e-5)
        for rho in np.linspace(2.8, 4.5, 6)
    ]
    perm = np.random.default_rng(11).permutation(len(scenarios))
    return [scenarios[i] for i in perm]


@pytest.fixture(scope="module")
def shuffled_reference():
    scenarios = _shuffled_grid()
    backend = get_backend("schedule-grid")
    return scenarios, [backend.solve_batch([sc])[0] for sc in scenarios]


class TestPlanOrder:
    @pytest.mark.parametrize(
        "backend",
        ["schedule-grid", "combined", "schedule-grid-jit",
         "schedule-grid-incremental"],
    )
    def test_shuffled_grid_comes_back_in_scenario_order(
        self, shuffled_reference, backend
    ):
        """One batched solve of a shuffled rate x rho grid, infeasible
        corner included, returns each scenario's own one-scenario
        result, in the order given."""
        scenarios, reference = shuffled_reference
        results = Experiment.from_scenarios(scenarios).solve(
            backend=backend, cache=False
        )
        assert [r.scenario for r in results] == scenarios
        assert 0 < sum(r.feasible for r in results) < len(scenarios)
        for got, want in zip(results, reference, strict=True):
            assert got.provenance.backend == "schedule-grid"
            assert got.feasible == want.feasible
            assert got.rho_min == want.rho_min
            assert got.best == want.best
