"""Scenario(schedule=...) routing, legacy equivalence, cache keys."""

from __future__ import annotations

import pytest

from repro.api import Experiment, Scenario, SolveCache, available_backends
from repro.core.solver import evaluate_pair, solve_bicrit
from repro.errors import CombinedErrors
from repro.exceptions import (
    InfeasibleBoundError,
    InvalidParameterError,
    UnsupportedScenarioError,
)
from repro.failstop.solver import solve_pair_combined
from repro.platforms import configuration_names, get_configuration
from repro.schedules import (
    Constant,
    Escalating,
    Geometric,
    ScheduleSolution,
    TwoSpeed,
    schedule_min_bound,
)

from .test_vectorized import assert_matches_oracle

RHO = 3.0


class TestRouting:
    def test_schedule_backend_registered(self):
        assert "schedule" in available_backends()

    def test_scheduled_scenario_defaults_to_schedule_grid(self):
        sc = Scenario(config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.6))
        assert sc.default_backend == "schedule-grid"
        assert sc.solve().provenance.backend == "schedule-grid"

    def test_spec_strings_are_parsed(self):
        sc = Scenario(config="hera-xscale", rho=RHO, schedule="two:0.4,0.6")
        assert sc.schedule == TwoSpeed(0.4, 0.6)

    def test_other_backends_reject_schedules(self):
        sc = Scenario(config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.6))
        for name in ("firstorder", "exact", "grid"):
            with pytest.raises(UnsupportedScenarioError):
                sc.solve(backend=name, cache=False)

    def test_schedule_backend_needs_a_schedule(self):
        sc = Scenario(config="hera-xscale", rho=RHO)
        with pytest.raises(UnsupportedScenarioError):
            sc.solve(backend="schedule", cache=False)

    def test_schedule_excludes_speed_restrictions(self):
        with pytest.raises(InvalidParameterError):
            Scenario(
                config="hera-xscale", rho=RHO,
                schedule=TwoSpeed(0.4, 0.6), speeds=(0.4,),
            )

    def test_schedule_excludes_single_speed_mode(self):
        with pytest.raises(InvalidParameterError):
            Scenario(
                config="hera-xscale", rho=RHO,
                mode="single-speed", schedule=Constant(0.4),
            )

    def test_with_schedule_helper(self):
        sc = Scenario(config="hera-xscale", rho=RHO)
        assert sc.with_schedule("const:0.4").schedule == Constant(0.4)
        assert sc.with_schedule("const:0.4").with_schedule(None).schedule is None

    def test_describe_includes_spec(self):
        sc = Scenario(config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.6))
        assert "two:0.4,0.6" in sc.describe()


class TestLegacyEquivalence:
    """Equivalence pin: TwoSpeed schedules == the legacy two-speed path."""

    def test_acceptance_pair_byte_identical(self, hera_xscale):
        legacy = solve_bicrit(
            hera_xscale, RHO, speeds=(0.4,), sigma2_choices=(0.6,)
        ).best
        res = Scenario(
            config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.6)
        ).solve(cache=False)
        assert res.best == legacy  # byte-identical PatternSolution

    def test_every_winning_pair_across_catalog(self, any_config):
        """For each catalog config the legacy winner, re-solved as a
        TwoSpeed schedule, is byte-identical."""
        legacy = solve_bicrit(any_config, RHO)
        pair = legacy.best.speed_pair
        res = Scenario(
            config=any_config, rho=RHO, schedule=TwoSpeed(*pair)
        ).solve(cache=False)
        assert res.best == legacy.best

    def test_every_feasible_candidate_matches(self, hera_xscale):
        """Each feasible candidate of the full enumeration equals the
        scheduled solve of its pair."""
        legacy = solve_bicrit(hera_xscale, RHO)
        for cand in legacy.candidates:
            sc = Scenario(
                config=hera_xscale, rho=RHO,
                schedule=TwoSpeed(cand.sigma1, cand.sigma2),
            )
            if cand.solution is None:
                with pytest.raises(InfeasibleBoundError):
                    sc.solve(cache=False)
            else:
                assert sc.solve(cache=False).best == cand.solution

    def test_combined_two_speed_matches_pair_solver(self):
        """The scalar ``schedule`` backend equals the Section-5 pair
        solver exactly; the default grid route agrees with it to the
        kernel's tolerances, on every configuration, feasible or not."""
        scenarios, oracles = [], []
        for name in configuration_names():
            cfg = get_configuration(name)
            errors = CombinedErrors(cfg.lam, 0.5)
            s = cfg.speeds
            for s1, s2 in ((s[1], s[2]), (s[0], s[0])):
                sc = Scenario(
                    config=name, rho=RHO, mode="combined",
                    failstop_fraction=0.5, schedule=TwoSpeed(s1, s2),
                )
                direct = solve_pair_combined(cfg, errors, s1, s2, RHO)
                rho_min = None
                if direct is None:
                    with pytest.raises(InfeasibleBoundError) as info:
                        sc.solve(backend="schedule", cache=False)
                    rho_min = info.value.rho_min
                    assert rho_min is not None
                else:
                    assert sc.solve(backend="schedule", cache=False).best == direct
                scenarios.append(sc)
                oracles.append((direct, rho_min))
        results = Experiment.from_scenarios(scenarios).solve(cache=False)
        assert {r.provenance.backend for r in results} == {"schedule-grid"}
        assert any(direct is None for direct, _ in oracles)
        for result, (direct, rho_min) in zip(results, oracles):
            assert_matches_oracle(result.best, direct)
            if direct is None:
                assert result.rho_min == pytest.approx(rho_min, rel=1e-6)

    def test_constant_diagonal_equals_two_speed_diagonal(self, hera_xscale):
        a = Scenario(
            config="hera-xscale", rho=RHO, schedule=Constant(0.4)
        ).solve(cache=False)
        b = Scenario(
            config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.4)
        ).solve(cache=False)
        assert a.best == b.best
        assert a.best == evaluate_pair(hera_xscale, 0.4, 0.4, RHO).solution


class TestGeneralSchedules:
    @pytest.mark.parametrize(
        "sched",
        [Escalating((0.4, 0.6, 0.8)), Geometric(0.4, 1.5, sigma_max=1.0)],
        ids=lambda s: s.spec(),
    )
    def test_end_to_end_solve(self, sched):
        res = Scenario(config="hera-xscale", rho=RHO, schedule=sched).solve(
            cache=False
        )
        best = res.best
        assert isinstance(best, ScheduleSolution)
        assert best.schedule == sched
        assert best.time_overhead <= RHO + 1e-9
        assert best.work > 0
        # Uniform accessors mirror the first two attempt speeds.
        assert best.sigma1 == sched.speed_for_attempt(1)
        assert best.sigma2 == sched.speed_for_attempt(2)

    def test_combined_mode_general_schedule(self, hera_xscale):
        sched = Geometric(0.4, 2.0, sigma_max=1.0)
        res = Scenario(
            config="hera-xscale", rho=RHO, mode="combined",
            failstop_fraction=0.3, schedule=sched,
        ).solve(cache=False)
        assert res.best.failstop_fraction == 0.3
        assert res.best.time_overhead <= RHO + 1e-9

    def test_infeasible_bound_reports_rho_min(self, hera_xscale):
        sched = Escalating((0.4, 0.6, 0.8))
        with pytest.raises(InfeasibleBoundError) as exc:
            Scenario(config="hera-xscale", rho=0.1, schedule=sched).solve(
                cache=False
            )
        rho_min = schedule_min_bound(hera_xscale, sched)
        assert exc.value.rho_min == pytest.approx(rho_min)
        # And the reported minimum is actually feasible.
        Scenario(
            config="hera-xscale", rho=rho_min * 1.001, schedule=sched
        ).solve(cache=False)

    def test_schedule_beats_or_matches_worse_tail(self, hera_xscale):
        """Sanity: escalating to a frantic tail costs more energy than
        the catalog optimum (energy grows with speed^3)."""
        opt = Scenario(config="hera-xscale", rho=RHO).solve(cache=False)
        frantic = Scenario(
            config="hera-xscale", rho=RHO, schedule=Escalating((0.4, 1.0))
        ).solve(cache=False)
        assert frantic.best.energy_overhead >= opt.best.energy_overhead


class TestCacheKeys:
    """Every result-affecting field must enter the cache key."""

    def test_distinct_schedules_never_collide(self):
        cache = SolveCache()
        scheds = [
            TwoSpeed(0.4, 0.6),
            TwoSpeed(0.6, 0.4),
            Constant(0.4),
            Escalating((0.4, 0.6, 0.8)),
            Geometric(0.4, 1.5, sigma_max=1.0),
            None,
        ]
        results = {}
        for sched in scheds:
            sc = Scenario(config="hera-xscale", rho=RHO, schedule=sched)
            results[sched] = sc.solve(cache=cache)
        # Re-solving replays each schedule's own result, not a neighbour's.
        for sched in scheds:
            sc = Scenario(config="hera-xscale", rho=RHO, schedule=sched)
            replay = sc.solve(cache=cache)
            assert replay.provenance.cache_hit
            assert replay.best == results[sched].best
        # The cache holds one entry per distinct schedule (+ the None run).
        assert len(cache) == len(scheds)

    def test_equivalent_schedules_share_an_entry(self):
        cache = SolveCache()
        Scenario(config="hera-xscale", rho=RHO, schedule=Constant(0.4)).solve(
            cache=cache
        )
        replay = Scenario(
            config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.4)
        ).solve(cache=cache)
        assert replay.provenance.cache_hit  # same canonical policy
        # ...but the replay is reported under the *caller's* spelling:
        # CSV/serialized exports must show the policy the caller wrote.
        assert replay.scenario.schedule.spec() == "two:0.4,0.4"

    def test_experiment_cache_replay_keeps_caller_scenario(self):
        from repro.api import Experiment

        cache = SolveCache()
        Scenario(config="hera-xscale", rho=RHO, schedule=Constant(0.4)).solve(
            cache=cache
        )
        exp = Experiment.from_scenarios((
                Scenario(config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.4)),
            )
        )
        results = exp.solve(cache=cache)
        assert results[0].provenance.cache_hit
        assert results[0].scenario.schedule.spec() == "two:0.4,0.4"

    def test_error_rate_enters_the_key(self):
        cache = SolveCache()
        base = Scenario(config="hera-xscale", rho=RHO, schedule=Constant(0.4))
        bumped = Scenario(
            config="hera-xscale", rho=RHO, schedule=Constant(0.4),
            error_rate=1e-6,
        )
        r1 = base.solve(cache=cache)
        r2 = bumped.solve(cache=cache)
        assert not r2.provenance.cache_hit
        assert r1.best != r2.best

    def test_failstop_fraction_enters_the_key(self):
        cache = SolveCache()
        a = Scenario(
            config="hera-xscale", rho=RHO, mode="combined",
            failstop_fraction=0.2, schedule=Constant(0.4),
        ).solve(cache=cache)
        b = Scenario(
            config="hera-xscale", rho=RHO, mode="combined",
            failstop_fraction=0.8, schedule=Constant(0.4),
        ).solve(cache=cache)
        assert not b.provenance.cache_hit
        assert a.best != b.best


class TestExperimentIntegration:
    def test_over_schedule_axis(self):
        from repro.api import Experiment

        scheds = (None, "two:0.4,0.6", Geometric(0.4, 1.5, sigma_max=1.0))
        exp = Experiment.over(
            configs=("hera-xscale",), rhos=(RHO,), schedules=scheds
        )
        assert len(exp) == 3
        results = exp.solve(cache=False)
        assert [r.scenario.schedule for r in results] == [
            None, TwoSpeed(0.4, 0.6), Geometric(0.4, 1.5, sigma_max=1.0),
        ]
        assert all(r.feasible for r in results)

    def test_over_schedule_axis_skips_single_speed_mode(self):
        """Like the fraction axis, the schedule axis only applies to
        modes that take one — mixing in single-speed must not raise."""
        from repro.api import Experiment

        exp = Experiment.over(
            configs=("hera-xscale",),
            rhos=(RHO,),
            modes=("silent", "single-speed"),
            schedules=(None, TwoSpeed(0.4, 0.6)),
        )
        # silent x {None, schedule} + single-speed x {None} = 3 scenarios.
        assert len(exp) == 3
        assert sum(1 for sc in exp if sc.mode == "single-speed") == 1
        assert all(
            sc.schedule is None for sc in exp if sc.mode == "single-speed"
        )

    def test_over_axis_with_schedule(self, hera_xscale):
        from repro.api import Experiment
        from repro.sweep.axes import axis_by_name

        axis = axis_by_name("C", n=4)
        exp = Experiment.over_axis(
            hera_xscale, RHO, axis, schedule="esc:0.4,0.6,0.8"
        )
        results = exp.solve(cache=False)
        assert len(results) == 4
        for r in results:
            assert r.scenario.schedule == Escalating((0.4, 0.6, 0.8))


class TestExports:
    def test_csv_round_trip_includes_schedule_column(self, tmp_path):
        from repro.api.result import ResultSet
        from repro.reporting.csvio import read_series_csv_rows

        res = Scenario(
            config="hera-xscale", rho=RHO, schedule=Geometric(0.4, 1.5, sigma_max=1.0)
        ).solve(cache=False)
        plain = Scenario(config="hera-xscale", rho=RHO).solve(cache=False)
        path = ResultSet(results=(res, plain)).to_csv(tmp_path / "sched.csv")
        rows = read_series_csv_rows(path)
        assert rows[0]["schedule"] == "geom:0.4,1.5,1"
        assert rows[1]["schedule"] == ""

    def test_serialized_result_round_trips_schedule(self):
        from repro.schedules import schedule_from_dict

        sched = Escalating((0.4, 0.6), terminal=1.0)
        res = Scenario(config="hera-xscale", rho=RHO, schedule=sched).solve(
            cache=False
        )
        payload = res.to_dict()
        assert schedule_from_dict(payload["scenario"]["schedule"]) == sched
        plain = Scenario(config="hera-xscale", rho=RHO).solve(cache=False)
        assert plain.to_dict()["scenario"]["schedule"] is None
