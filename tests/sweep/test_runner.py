"""Unit tests for the sweep runner and series containers."""

from __future__ import annotations

import numpy as np

from repro.sweep.axes import checkpoint_axis, rho_axis
from repro.sweep.runner import run_sweep


class TestRunSweep:
    def test_series_aligned_with_axis(self, atlas_crusoe):
        axis = checkpoint_axis(n=7)
        series = run_sweep(atlas_crusoe, 3.0, axis)
        assert len(series) == 7
        np.testing.assert_allclose(series.values, axis.values)

    def test_metadata(self, atlas_crusoe):
        series = run_sweep(atlas_crusoe, 3.0, checkpoint_axis(n=3))
        assert series.config_name == atlas_crusoe.name
        assert series.axis_name == "C"
        assert series.rho == 3.0

    def test_two_speed_never_worse(self, atlas_crusoe):
        series = run_sweep(atlas_crusoe, 3.0, checkpoint_axis(n=9))
        e2, e1 = series.energy_two(), series.energy_single()
        ok = np.isfinite(e2) & np.isfinite(e1)
        assert ok.any()
        assert np.all(e2[ok] <= e1[ok] + 1e-9)

    def test_rho_sweep_has_infeasible_head(self, atlas_crusoe):
        # rho just above 1 is below the minimum feasible bound.
        series = run_sweep(atlas_crusoe, 3.0, rho_axis(lo=1.01, hi=3.5, n=20))
        mask = series.feasible_mask()
        assert not mask[0]          # tightest bound infeasible
        assert mask[-1]             # loosest bound feasible
        # Feasibility is monotone in rho.
        first_ok = int(np.argmax(mask))
        assert mask[first_ok:].all()

    def test_nan_encoding_of_infeasible(self, atlas_crusoe):
        series = run_sweep(atlas_crusoe, 3.0, rho_axis(lo=1.01, hi=3.5, n=10))
        e2 = series.energy_two()
        mask = series.feasible_mask()
        assert np.all(np.isnan(e2[~mask]))
        assert np.all(np.isfinite(e2[mask]))

    def test_speed_pairs_listing(self, atlas_crusoe):
        series = run_sweep(atlas_crusoe, 3.0, checkpoint_axis(n=5))
        pairs = series.speed_pairs()
        assert len(pairs) == 5
        for p, s1, s2 in zip(pairs, series.sigma1(), series.sigma2()):
            assert p == (s1, s2)

    def test_single_speed_is_diagonal(self, atlas_crusoe):
        series = run_sweep(atlas_crusoe, 3.0, checkpoint_axis(n=5))
        for p in series.points:
            if p.single_speed is not None:
                assert p.single_speed.sigma1 == p.single_speed.sigma2


class TestNaNAccessors:
    """Every array accessor must NaN-encode infeasible points and stay
    aligned with the axis values (the plot-readiness contract)."""

    TWO_ACCESSORS = ("sigma1", "sigma2", "work_two", "energy_two")
    ONE_ACCESSORS = ("sigma_single", "work_single", "energy_single")

    def _series_with_infeasible_head(self, cfg):
        # rho just above 1 is below the minimum feasible bound, so the
        # head of a rho sweep is infeasible for both solvers.
        return run_sweep(cfg, 3.0, rho_axis(lo=1.01, hi=3.5, n=12))

    def test_all_two_speed_accessors_nan_at_infeasible(self, atlas_crusoe):
        series = self._series_with_infeasible_head(atlas_crusoe)
        mask = series.feasible_mask()
        assert not mask.all() and mask.any()
        for accessor in self.TWO_ACCESSORS:
            arr = getattr(series, accessor)()
            assert np.all(np.isnan(arr[~mask])), accessor
            assert np.all(np.isfinite(arr[mask])), accessor

    def test_all_single_speed_accessors_nan_at_infeasible(self, atlas_crusoe):
        series = self._series_with_infeasible_head(atlas_crusoe)
        one_mask = np.array([p.single_speed is not None for p in series.points])
        assert not one_mask.all() and one_mask.any()
        for accessor in self.ONE_ACCESSORS:
            arr = getattr(series, accessor)()
            assert np.all(np.isnan(arr[~one_mask])), accessor
            assert np.all(np.isfinite(arr[one_mask])), accessor

    def test_accessor_lengths_align_with_axis(self, atlas_crusoe):
        axis = rho_axis(lo=1.01, hi=3.5, n=9)
        series = run_sweep(atlas_crusoe, 3.0, axis)
        np.testing.assert_allclose(series.values, axis.values)
        for accessor in self.TWO_ACCESSORS + self.ONE_ACCESSORS:
            arr = getattr(series, accessor)()
            assert arr.shape == (len(axis),), accessor

    def test_accessor_values_align_pointwise(self, atlas_crusoe):
        # Each array element must come from *its own* point, not a
        # shifted neighbour: cross-check against the point objects.
        series = self._series_with_infeasible_head(atlas_crusoe)
        for i, p in enumerate(series.points):
            if p.two_speed is not None:
                assert series.sigma1()[i] == p.two_speed.sigma1
                assert series.energy_two()[i] == p.two_speed.energy_overhead
            else:
                assert np.isnan(series.energy_two()[i])
            if p.single_speed is not None:
                assert series.work_single()[i] == p.single_speed.work
            else:
                assert np.isnan(series.work_single()[i])

    def test_nan_propagates_through_percent_savings(self, atlas_crusoe):
        from repro.analysis.verbs import percent_savings

        series = self._series_with_infeasible_head(atlas_crusoe)
        s = percent_savings(series.energy_two(), series.energy_single())
        mask = series.feasible_mask()
        assert np.all(np.isnan(s[~mask]))
        assert np.all(np.isfinite(s[mask]))
