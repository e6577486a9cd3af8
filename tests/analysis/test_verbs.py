"""Analysis verbs on ResultSet: frontier, savings, sensitivity, crossover."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.verbs import (
    CrossoverResult,
    DiffResult,
    FrontierResult,
    SavingsResult,
    SensitivityResult,
    _scenario_features,
    percent_savings,
)
from repro.api import Experiment, Scenario
from repro.reporting.csvio import read_series_csv_rows


def _rho_results(cfg, n=12, lo=2.2, hi=6.0, **over_kwargs):
    return Experiment.over(
        configs=(cfg,), rhos=tuple(float(r) for r in np.linspace(lo, hi, n)),
        name="verbs-test", **over_kwargs,
    ).solve()


class TestFrontierVerb:
    def test_default_axes_and_monotone(self, hera_xscale):
        fr = _rho_results(hera_xscale).frontier()
        assert isinstance(fr, FrontierResult)
        assert fr.x_attr == "time_overhead"
        assert fr.y_attr == "energy_overhead"
        assert fr.is_monotone()
        assert np.all(np.diff(fr.xs) >= 0)
        assert np.all(np.diff(fr.ys) < 0)  # pruned: strictly improving

    def test_prune_false_keeps_result_order_duplicates_collapsed(self, hera_xscale):
        results = _rho_results(hera_xscale, n=30, hi=60.0)
        legacy = results.frontier(prune=False)
        pruned = results.frontier()
        assert len(pruned) <= len(legacy)
        # prune=False keeps only consecutive-duplicate collapse.
        pts = list(zip(legacy.xs, legacy.ys))
        assert len(pts) == len(set(pts))

    def test_infeasible_points_skipped(self, hera_xscale):
        fr = _rho_results(hera_xscale, lo=1.01, n=10).frontier()
        assert len(fr) >= 1  # infeasible head dropped, no crash

    def test_knee_well_defined(self, hera_xscale):
        fr = _rho_results(hera_xscale).frontier()
        knee = fr.knee()
        assert knee in fr.points
        assert fr.dominates(knee.x + 1.0, knee.y + 1.0)
        assert not fr.dominates(fr.xs.min() - 1.0, fr.ys.min() - 1.0)

    def test_empty_frontier_knee_raises(self, hera_xscale):
        fr = _rho_results(hera_xscale, lo=1.01, hi=1.02, n=2).frontier()
        assert len(fr) == 0
        with pytest.raises(ValueError):
            fr.knee()

    def test_custom_axes(self, hera_xscale):
        fr = _rho_results(hera_xscale).frontier(x="time_overhead", y="work")
        assert fr.y_attr == "work"
        assert len(fr) >= 1

    def test_provenance_recorded(self, hera_xscale):
        results = _rho_results(hera_xscale)
        fr = results.frontier()
        assert fr.provenance.source == "verbs-test"
        assert fr.provenance.n_results == len(results)
        assert "firstorder" in fr.provenance.backends

    def test_csv_json_export(self, hera_xscale, tmp_path):
        fr = _rho_results(hera_xscale).frontier()
        path = fr.to_csv(tmp_path / "fr.csv")
        rows = read_series_csv_rows(path)
        assert len(rows) == len(fr)
        assert set(rows[0]) == {
            "rho", "time_overhead", "energy_overhead", "scenario", "backend",
        }
        payload = json.loads(fr.to_json())
        assert payload["x"] == "time_overhead"
        assert len(payload["points"]) == len(fr)
        written = fr.to_json(tmp_path / "fr.json")
        assert json.loads(written.read_text())["points"] == payload["points"]

    def test_schedule_and_error_model_frontier(self, hera_xscale):
        # The pre-pipeline impossibility: frontier over a renewal model
        # under a geometric schedule.
        fr = _rho_results(
            hera_xscale, n=6, lo=3.0, hi=6.0,
            schedules=("geom:0.4,1.5,1",),
            error_models=("gamma:shape=2,mtbf=3e5",),
        ).frontier()
        assert fr.is_monotone()
        assert len(fr) >= 1
        assert fr.provenance.backends == ("schedule-grid",)


def _bound_sweep(cfg, hi=10.0, n=60, *, prune):
    """The frontier of a rho sweep from just above the feasibility edge."""
    from repro.core.feasibility import min_performance_bound_config

    lo = min_performance_bound_config(cfg) * 1.0001
    return _rho_results(cfg, n=n, lo=lo, hi=hi).frontier(prune=prune)


@pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
class TestFrontierOverBoundSweep:
    """The energy-vs-time frontier a bound sweep traces."""

    def test_energy_monotone_nonincreasing_in_time(self, hera_xscale, prune):
        fr = _bound_sweep(hera_xscale, n=40, prune=prune)
        # Achieved time grows with the bound, optimal energy falls (weakly).
        assert np.all(np.diff(fr.energies) <= 1e-9)
        assert np.all(np.diff(fr.times) >= -1e-9)

    def test_no_duplicate_points(self, hera_xscale, prune):
        fr = _bound_sweep(hera_xscale, n=60, prune=prune)
        pts = list(zip(fr.times, fr.energies))
        assert len(pts) == len(set(pts))

    def test_plateau_collapsed(self, hera_xscale, prune):
        # Once the bound exceeds the unconstrained optimum's overhead
        # the solution stops changing; those points must be collapsed.
        fr = _bound_sweep(hera_xscale, hi=100.0, n=80, prune=prune)
        assert len(fr) < 80

    def test_all_configs(self, any_config, prune):
        fr = _bound_sweep(any_config, n=30, prune=prune)
        assert len(fr) >= 2
        assert fr.provenance.source == "verbs-test"

    def test_knee_is_a_frontier_point(self, hera_xscale, prune):
        fr = _bound_sweep(hera_xscale, n=40, prune=prune)
        assert fr.knee() in fr.points

    def test_knee_balances_both_objectives(self, hera_xscale, prune):
        # The knee must not be the loose end of the frontier (which
        # minimises energy but wastes time headroom) for a frontier
        # with real curvature.
        fr = _bound_sweep(hera_xscale, n=60, prune=prune)
        assert len(fr) >= 3
        assert fr.knee() is not fr.points[-1]

    def test_tiny_frontier(self, hera_xscale, prune):
        fr = _bound_sweep(hera_xscale, hi=2.0, n=3, prune=prune)
        # Degenerate frontiers return a valid point without crashing.
        assert fr.knee() in fr.points

    def test_frontier_dominates_interior(self, hera_xscale, prune):
        fr = _bound_sweep(hera_xscale, n=40, prune=prune)
        # Any point strictly worse in both axes is dominated.
        assert fr.dominates(fr.times[0] + 1.0, fr.energies[0] + 1.0)

    def test_frontier_does_not_dominate_better_point(self, hera_xscale, prune):
        fr = _bound_sweep(hera_xscale, n=40, prune=prune)
        assert not fr.dominates(fr.times.min() - 0.5, fr.energies.min() - 0.5)

    def test_single_speed_optima_dominated_at_matching_bounds(self, hera_xscale, prune):
        # Apples to apples: at each frontier point's own bound, the
        # one-speed optimum is weakly dominated by that frontier point.
        # (Probing *between* grid bounds can fall into the sharp
        # transition around rho ~ 1.78-1.82 where sigma1 = 0.6 pairs
        # become feasible and the frontier jumps — a genuine feature of
        # the discrete speed set, not a solver artefact.)
        from repro.core.singlespeed import solve_single_speed
        from repro.exceptions import InfeasibleBoundError

        fr = _bound_sweep(hera_xscale, n=60, prune=prune)
        checked = 0
        for point in fr.points:
            try:
                one = solve_single_speed(hera_xscale, point.rho).best
            except InfeasibleBoundError:
                continue
            assert point.energy_overhead <= one.energy_overhead + 1e-9
            checked += 1
        assert checked >= 3


class TestSavingsVerb:
    def test_two_speed_vs_single_speed(self, atlas_crusoe):
        two = _rho_results(atlas_crusoe, n=8)
        one = Experiment.over(
            configs=(atlas_crusoe,),
            rhos=tuple(float(r) for r in np.linspace(2.2, 6.0, 8)),
            modes=("single-speed",),
            name="baseline",
        ).solve()
        sav = two.savings(one)
        assert isinstance(sav, SavingsResult)
        assert sav.axis == "rho"  # inferred from distinct rhos
        m = sav.finite_mask
        assert m.any()
        assert np.all(sav.percent[m] >= -1e-9)  # two-speed never worse
        assert sav.baseline_name == "baseline"
        assert 0 <= sav.num_points_with_savings() <= len(sav)

    def test_misaligned_lengths_rejected(self, hera_xscale):
        a = _rho_results(hera_xscale, n=4)
        b = _rho_results(hera_xscale, n=5)
        with pytest.raises(ValueError):
            a.savings(b)

    def test_nan_at_infeasible_points(self, hera_xscale):
        cand = _rho_results(hera_xscale, lo=1.01, n=8)
        base = Experiment.over(
            configs=(hera_xscale,),
            rhos=tuple(float(r) for r in np.linspace(1.01, 6.0, 8)),
            modes=("single-speed",),
        ).solve()
        sav = cand.savings(base)
        infeasible = ~cand.feasible_mask()
        assert infeasible.any()
        assert np.all(np.isnan(sav.percent[infeasible]))

    def test_summary_stats_and_export(self, atlas_crusoe, tmp_path):
        from repro.sweep.axes import checkpoint_axis

        axis = checkpoint_axis(n=6)
        cand = Experiment.over_axis(atlas_crusoe, 3.0, axis).solve()
        base = Experiment.over_axis(
            atlas_crusoe, 3.0, axis, modes=("single-speed",)
        ).solve()
        sav = cand.savings(base, values=axis.values, axis="C")
        assert sav.axis == "C"
        assert sav.argmax_value in axis.values
        assert sav.max_savings_percent >= sav.mean_savings_percent - 1e-12
        rows = read_series_csv_rows(sav.to_csv(tmp_path / "s.csv"))
        assert set(rows[0]) == {
            "C", "candidate_energy", "baseline_energy", "savings_percent",
        }
        payload = json.loads(sav.to_json())
        assert payload["axis"] == "C"
        assert payload["baseline"] == base.name

    def test_percent_savings_nan_propagation(self):
        out = percent_savings(
            np.array([50.0, np.nan, 75.0]), np.array([100.0, 100.0, np.nan])
        )
        assert out[0] == 50.0
        assert np.isnan(out[1]) and np.isnan(out[2])

    def test_all_nan_summary(self, hera_xscale):
        cand = _rho_results(hera_xscale, lo=1.01, hi=1.02, n=3)
        base = _rho_results(hera_xscale, lo=1.01, hi=1.02, n=3)
        sav = cand.savings(base, values=(1, 2, 3))
        assert np.isnan(sav.max_savings_percent)
        assert np.isnan(sav.argmax_value)
        assert np.isnan(sav.mean_savings_percent)
        assert not sav.any_savings


class TestSensitivityVerb:
    def test_elasticity_along_rho(self, hera_xscale):
        results = _rho_results(hera_xscale, n=10, lo=2.2, hi=3.2)
        sens = results.sensitivity()
        assert isinstance(sens, SensitivityResult)
        assert np.isnan(sens.elasticities[0]) and np.isnan(sens.elasticities[-1])
        m = sens.finite_mask
        assert m.any()
        # Energy falls (weakly) as the bound loosens: elasticity <= 0.
        assert np.all(sens.elasticities[m] <= 1e-9)

    def test_custom_values_axis(self, atlas_crusoe):
        from repro.sweep.axes import checkpoint_axis

        axis = checkpoint_axis(n=7)
        results = Experiment.over_axis(atlas_crusoe, 3.0, axis).solve()
        sens = results.sensitivity(values=axis.values, axis="C")
        assert sens.axis == "C"
        assert len(sens) == 7
        assert np.isfinite(sens.max_abs_elasticity())
        assert sens.at(axis.values[3]) == sens.elasticities[3]

    def test_infeasible_neighbours_yield_nan(self, hera_xscale):
        results = _rho_results(hera_xscale, lo=1.01, n=8)
        sens = results.sensitivity()
        feasible = results.feasible_mask()
        first = int(np.argmax(feasible))
        if first > 0:
            # The first feasible point has an infeasible neighbour.
            assert np.isnan(sens.elasticities[first])

    def test_mismatched_values_rejected(self, hera_xscale):
        with pytest.raises(ValueError):
            _rho_results(hera_xscale, n=4).sensitivity(values=(1.0, 2.0))

    def test_export(self, hera_xscale, tmp_path):
        sens = _rho_results(hera_xscale, n=6).sensitivity()
        rows = read_series_csv_rows(sens.to_csv(tmp_path / "sens.csv"))
        assert len(rows) == 6
        assert rows[0]["elasticity"] == ""  # endpoint NaN -> empty cell
        payload = json.loads(sens.to_json())
        assert payload["y"] == "energy_overhead"


class TestCrossoverVerb:
    def test_finds_pair_changes_along_rho(self, hera_xscale):
        results = _rho_results(hera_xscale, n=40, lo=1.2, hi=9.0)
        cx = results.crossover()
        assert isinstance(cx, CrossoverResult)
        assert len(cx) >= 2  # several winners across a wide rho range
        assert len(cx.distinct_pairs()) >= 3
        for e in cx.events:
            assert e.index_after == e.index_before + 1
            assert e.pair_before != e.pair_after

    def test_feasibility_transition_counts(self, hera_xscale):
        results = _rho_results(hera_xscale, n=10, lo=1.01, hi=4.0)
        cx = results.crossover()
        assert any(e.pair_before is None for e in cx.events)

    def test_constant_winner_no_events(self, hera_xscale):
        results = _rho_results(hera_xscale, n=4, lo=8.0, hi=9.0)
        cx = results.crossover()
        assert len(cx) == 0

    def test_export(self, hera_xscale, tmp_path):
        cx = _rho_results(hera_xscale, n=30, lo=1.2, hi=9.0).crossover()
        rows = read_series_csv_rows(cx.to_csv(tmp_path / "cx.csv"))
        assert len(rows) == len(cx)
        payload = json.loads(cx.to_json())
        assert len(payload["events"]) == len(cx)


class TestDiffVerb:
    def test_rho_neighbours_name_the_moved_axis(self, hera_xscale):
        results = _rho_results(hera_xscale, n=12)
        d = results.diff(3, 4)
        assert isinstance(d, DiffResult)
        assert d.invariants_equal
        assert [c.field for c in d.scenario_changes] == ["rho"]
        rho_delta = d.scenario_changes[0]
        assert rho_delta.delta is not None and rho_delta.delta > 0
        assert d.change("work") is not None or len(d) >= 0

    def test_identical_results_have_no_changes(self, hera_xscale):
        results = _rho_results(hera_xscale, n=4)
        d = results.diff(2, 2)
        assert d.scenario_changes == ()
        assert len(d) == 0
        assert not d.regime_change
        assert not d.pair_flip
        assert "identical scenarios" in d.describe()

    def test_feasibility_flip_across_rho_min(self, hera_xscale):
        # rho=1.01 is below rho_min for this platform; rho=4 is feasible.
        results = _rho_results(hera_xscale, n=2, lo=1.01, hi=4.0)
        d = results.diff(0, 1)
        assert d.regime_before == "infeasible"
        assert d.regime_after != "infeasible"
        assert d.feasibility_flip
        assert "feasibility flipped" in d.describe()

    def test_regimes_classified_against_interval(self, hera_xscale):
        # The schedule backends attach the feasible interval to the
        # winning solution, so the regime classifier can tell crossing-
        # pinned optima from interior ones.
        # Just past rho_min the optimum sits on the lower crossing;
        # further out it relaxes to the interior energy minimum.
        results = _rho_results(
            hera_xscale, n=10, lo=2.35, hi=2.9,
            schedules=("geom:0.4,1.5,1",),
        )
        regimes = [
            results.diff(i, i + 1).regime_after
            for i in range(len(results) - 1)
        ]
        assert "at-w-lo" in regimes
        assert "interior" in regimes
        assert set(regimes) <= {"infeasible", "interior", "at-w-lo", "at-w-hi"}

    def test_negative_indices_and_describe(self, hera_xscale):
        results = _rho_results(hera_xscale, n=6)
        d = results.diff(-2, -1)
        assert d.index_a == len(results) - 2
        assert d.index_b == len(results) - 1
        text = d.describe()
        assert f"diff[{d.index_a} -> {d.index_b}]" in text
        assert "rho" in text

    def test_export_round_trip(self, hera_xscale, tmp_path):
        results = _rho_results(hera_xscale, n=8)
        d = results.diff(0, -1)
        payload = json.loads(d.to_json())
        assert payload["regime_before"] == d.regime_before
        assert len(payload["changes"]) == len(d.changes)
        assert len(payload["scenario_changes"]) == 1
        rows = read_series_csv_rows(d.to_csv(tmp_path / "diff.csv"))
        assert len(rows) == len(d.to_dicts())

    def test_non_neighbour_scenarios_flagged(self, hera_xscale, atlas_crusoe):
        results = Experiment.over(
            configs=(hera_xscale, atlas_crusoe), rhos=(3.0,),
            name="diff-invariants",
        ).solve()
        d = results.diff(0, 1)
        assert not d.invariants_equal
        assert "not sweep neighbours" in d.describe()


class TestScenarioFeatures:
    """The (invariant key, numeric axes) split that ``diff`` reads."""

    SCHEDULE = "geom:0.4,1.5,1"

    def _rho_scenarios(self, rhos):
        return [
            Scenario(config="hera-xscale", rho=float(r), schedule=self.SCHEDULE)
            for r in rhos
        ]

    def test_rho_is_the_only_moving_axis_on_a_rho_sweep(self):
        a, b = self._rho_scenarios([3.0, 4.0])
        inv_a, ax_a = _scenario_features(a)
        inv_b, ax_b = _scenario_features(b)
        assert inv_a == inv_b
        assert ax_a[:2] == ax_b[:2]
        assert ax_a[2] == 3.0 and ax_b[2] == 4.0

    def test_silent_rate_read_from_configuration(self):
        sc = self._rho_scenarios([3.0])[0]
        _, axes = _scenario_features(sc)
        assert axes[0] == sc.resolved_config().lam
        assert axes[1] == 0.0

    def test_combined_mode_exposes_rate_and_fraction(self):
        sc = Scenario(
            config="hera-xscale", rho=3.0, mode="combined",
            failstop_fraction=0.4, error_rate=2e-5, schedule=self.SCHEDULE,
        )
        _, axes = _scenario_features(sc)
        assert axes[0] == pytest.approx(2e-5)
        assert axes[1] == pytest.approx(0.4)

    def test_renewal_model_part_of_invariant_key(self):
        spec = "gamma:shape=2,mtbf=3e5"
        a = Scenario(config="hera-xscale", rho=3.0, errors=spec,
                     schedule=self.SCHEDULE)
        b = Scenario(config="hera-xscale", rho=3.0, schedule=self.SCHEDULE)
        inv_a, _ = _scenario_features(a)
        inv_b, _ = _scenario_features(b)
        assert inv_a != inv_b

    def test_different_schedules_break_the_invariant(self):
        a = Scenario(config="hera-xscale", rho=3.0, schedule="geom:0.4,1.5,1")
        b = Scenario(config="hera-xscale", rho=3.0, schedule="two:0.4,0.8")
        assert _scenario_features(a)[0] != _scenario_features(b)[0]
