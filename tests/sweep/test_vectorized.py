"""The Theorem-1 kernel (``evaluate_pair_grid``) vs the scalar solvers.

``run_sweep`` against the per-point scalar oracle on every axis and
configuration is pinned in ``tests/analysis/test_pipeline_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.verbs import percent_savings
from repro.sweep.axes import checkpoint_axis
from repro.sweep.runner import run_sweep
from repro.sweep.vectorized import config_columns, evaluate_pair_grid


def _pair_product(speeds):
    """The s1-major K x K pair product and the columns of its diagonal."""
    k = len(speeds)
    return np.repeat(speeds, k), np.tile(speeds, k), np.arange(k) * (k + 1)


def _best(energy, columns):
    """Per row: the lowest energy among ``columns`` and its column."""
    pick = columns[np.argmin(energy[:, columns], axis=1)]
    return energy[np.arange(energy.shape[0]), pick], pick


class TestSavingsFromKernel:
    def test_savings_match(self, atlas_crusoe):
        """Savings read off one kernel pass (pair product vs its
        diagonal) equal ``run_sweep``'s, bit for bit."""
        axis = checkpoint_axis(n=15)
        configs = [axis.apply(atlas_crusoe, 3.0, v)[0] for v in axis.values]
        s1, s2, diag = _pair_product(atlas_crusoe.speeds)
        grid = evaluate_pair_grid(s1, s2, **config_columns(configs), rho=3.0)
        two, _ = _best(grid.energy, np.arange(s1.size))
        one, _ = _best(grid.energy, diag)
        series = run_sweep(atlas_crusoe, 3.0, axis)
        assert np.array_equal(two, series.energy_two())
        assert np.array_equal(one, series.energy_single())
        assert np.array_equal(
            percent_savings(two, one),
            percent_savings(series.energy_two(), series.energy_single()),
        )


class TestGridSolver:
    def test_scalar_inputs_broadcast(self, hera_xscale):
        s1, s2, _ = _pair_product(hera_xscale.speeds)
        grid = evaluate_pair_grid(s1, s2, **config_columns([hera_xscale]), rho=3.0)
        assert grid.energy.shape == (1, s1.size)
        _, k = _best(grid.energy, np.arange(s1.size))
        assert (s1[k[0]], s2[k[0]]) == (0.4, 0.4)
        assert grid.work[0, k[0]] == pytest.approx(2764, abs=1.5)

    def test_mixed_array_scalar_inputs(self, hera_xscale):
        cfg = hera_xscale
        s1, s2, _ = _pair_product(cfg.speeds)
        columns = config_columns([cfg])
        columns["lam"] = np.array([1e-6, 1e-5, 1e-4])
        grid = evaluate_pair_grid(s1, s2, **columns, rho=3.0)
        assert grid.energy.shape == (3, s1.size)
        _, k = _best(grid.energy, np.arange(s1.size))
        work = grid.work[np.arange(3), k]
        # Wopt shrinks with the rate.
        assert work[0] > work[1] > work[2]

    def test_all_infeasible_is_inf(self, hera_xscale):
        s1, s2, _ = _pair_product(hera_xscale.speeds)
        # Below 1/sigma_max: nothing is feasible.
        grid = evaluate_pair_grid(s1, s2, **config_columns([hera_xscale]), rho=0.5)
        assert np.all(np.isinf(grid.energy))

    def test_single_speed_is_diagonal_restriction(self, hera_xscale):
        s1, s2, diag = _pair_product(hera_xscale.speeds)
        grid = evaluate_pair_grid(s1, s2, **config_columns([hera_xscale]), rho=3.0)
        two, _ = _best(grid.energy, np.arange(s1.size))
        one, _ = _best(grid.energy, diag)
        assert one[0] >= two[0]
