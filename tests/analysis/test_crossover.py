"""Unit tests for the crossover analysis."""

from __future__ import annotations

import pytest

from repro.analysis.crossover import optimal_pairs_by_rho
from repro.api import Experiment
from repro.sweep.axes import checkpoint_axis, rho_axis


def _crossover(cfg, axis):
    """The ``.crossover()`` verb along the two-speed sweep of ``axis``."""
    results = Experiment.over_axis(cfg, 3.0, axis).solve()
    return results.crossover(values=axis.values, axis=axis.name)


class TestCrossoverAlongSweeps:
    def test_fig2_has_crossovers(self, atlas_crusoe):
        # The paper's Figure 2: the pair moves from (0.45,0.45) towards
        # (0.45,0.8) as C grows, so at least one crossover exists.
        cr = _crossover(atlas_crusoe, checkpoint_axis(n=25))
        assert len(cr) >= 1
        first = cr.events[0]
        assert first.pair_before == (0.45, 0.45)
        assert cr.axis == "C"

    def test_crossover_endpoints_are_adjacent(self, atlas_crusoe):
        axis = checkpoint_axis(n=25)
        values = list(axis.values)
        for ev in _crossover(atlas_crusoe, axis).events:
            i = values.index(ev.value_before)
            assert values[i + 1] == ev.value_after
            assert (ev.index_before, ev.index_after) == (i, i + 1)

    def test_feasibility_transition_counts(self, atlas_crusoe):
        cr = _crossover(atlas_crusoe, rho_axis(lo=1.01, hi=3.5, n=20))
        # At least the infeasible -> feasible boundary.
        assert any(e.pair_before is None and e.pair_after is not None for e in cr.events)

    def test_no_changes_on_constant_series(self, hera_xscale):
        # Hera/XScale keeps (0.4, 0.4) along a modest C range at rho=3.
        cr = _crossover(hera_xscale, checkpoint_axis(lo=100, hi=500, n=6))
        assert cr.events == ()
        assert cr.distinct_pairs() == ((0.4, 0.4),)

    def test_pairs_match_run_sweep(self, atlas_crusoe):
        from repro.sweep.runner import run_sweep

        axis = checkpoint_axis(n=25)
        series = run_sweep(atlas_crusoe, 3.0, axis)
        assert list(_crossover(atlas_crusoe, axis).pairs) == series.speed_pairs()


class TestOptimalPairsByRho:
    def test_many_pairs_can_win(self, hera_xscale):
        # Section 4.2: "it is possible, for a well-chosen rho, to have
        # almost any speed pair as the optimal solution".  Scan a wide
        # range and count distinct winners.
        intervals = optimal_pairs_by_rho(hera_xscale, 1.2, 9.0, 300)
        winners = {iv.pair for iv in intervals}
        assert len(winners) >= 4

    def test_intervals_ordered_and_disjoint(self, hera_xscale):
        intervals = optimal_pairs_by_rho(hera_xscale, 1.2, 9.0, 100)
        for a, b in zip(intervals, intervals[1:]):
            assert a.rho_max < b.rho_min or a.rho_max == pytest.approx(b.rho_min, abs=0.1)

    def test_loose_bound_winner_is_global_optimum(self, hera_xscale):
        from repro.core.solver import solve_bicrit

        intervals = optimal_pairs_by_rho(hera_xscale, 1.2, 9.0, 100)
        assert intervals[-1].pair == solve_bicrit(hera_xscale, 9.0).best.speed_pair

    def test_low_speed_pairs_never_win(self, hera_xscale):
        # The paper: "except the pairs with very low speeds" — 0.15 as a
        # first speed never wins on Hera/XScale (too slow and too
        # error-exposed).
        intervals = optimal_pairs_by_rho(hera_xscale, 1.2, 20.0, 300)
        assert all(iv.pair[0] != 0.15 for iv in intervals)
