"""The composable Experiment pipeline: builders, plans, execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment, Scenario, SolveCache
from repro.api.experiment import ExecutionPlan, PlanProgress
from repro.exceptions import (
    InfeasibleBoundError,
    UnknownBackendError,
    UnsupportedScenarioError,
)


class TestBuilders:
    @pytest.mark.parametrize(
        "rho", [3, 3.0, np.int64(3), np.float64(3.0)], ids=repr
    )
    def test_over_scalar_rho_sugar(self, rho):
        exp = Experiment.over(configs=("hera-xscale",), rhos=rho)
        assert len(exp) == 1
        assert exp[0].rho == 3.0
        assert type(exp[0].rho) is float

    def test_from_scenarios_accepts_generator(self, hera_xscale):
        exp = Experiment.from_scenarios(
            (Scenario(config=hera_xscale, rho=r) for r in (2.5, 3.0)), name="gen"
        )
        assert len(exp) == 2
        assert exp.name == "gen"

    def test_where_filters(self):
        exp = Experiment.over(configs=("hera-xscale",), rhos=(2.0, 2.5, 3.0))
        tight = exp.where(lambda sc: sc.rho < 2.6)
        assert [sc.rho for sc in tight] == [2.0, 2.5]
        assert len(exp) == 3  # original untouched (frozen value)

    def test_concat_and_rename(self):
        a = Experiment.over(configs=("hera-xscale",), rhos=(2.5,))
        b = Experiment.over(configs=("hera-xscale",), rhos=(3.0,))
        both = a.concat(b).with_name("both")
        assert len(both) == 2
        assert both.name == "both"
        assert both.solve().name == "both"


class TestPlanCompilation:
    def test_plan_is_lazy_and_deduplicated(self, hera_xscale):
        sc = Scenario(config=hera_xscale, rho=3.0)
        exp = Experiment.from_scenarios([sc, sc, sc.with_rho(2.5), sc])
        plan = exp.plan()
        assert len(plan) == 4
        assert plan.n_unique == 2
        assert plan.n_deduplicated == 2
        assert plan.index_map == (0, 0, 1, 0)

    def test_dedup_is_cache_key_based_not_identity_based(self, hera_xscale):
        # Labels, backend preference, and equivalent spellings must
        # collapse into one unique solve.
        a = Scenario(config="hera-xscale", rho=3.0)
        b = Scenario(config=hera_xscale, rho=3.0, label="same point")
        c = Scenario(config=hera_xscale, rho=3.0, schedule="two:0.5,0.5")
        d = Scenario(config=hera_xscale, rho=3.0, schedule="const:0.5")
        plan = Experiment.from_scenarios([a, b, c, d]).plan()
        assert plan.n_unique == 2  # {a, b} and {c, d}

    def test_same_scenario_different_backends_not_deduplicated(self, hera_xscale):
        a = Scenario(config=hera_xscale, rho=3.0, backend="firstorder")
        b = Scenario(config=hera_xscale, rho=3.0, backend="exact")
        plan = Experiment.from_scenarios([a, b]).plan()
        assert plan.n_unique == 2

    def test_groups_partition_unique_by_backend(self, hera_xscale):
        exp = Experiment.over(
            configs=(hera_xscale,),
            rhos=(2.5, 3.0),
            schedules=(None, "geom:0.4,1.5,1"),
        )
        plan = exp.plan()
        by_backend = {g.backend: list(g.indices) for g in plan.groups}
        assert set(by_backend) == {"firstorder", "schedule-grid"}
        together = sorted(i for idxs in by_backend.values() for i in idxs)
        assert together == list(range(plan.n_unique))

    def test_forced_backend_applies_to_all(self, hera_xscale):
        exp = Experiment.over(configs=(hera_xscale,), rhos=(2.5, 3.0))
        plan = exp.plan(backend="exact")
        assert all(g.backend == "exact" for g in plan.groups)

    def test_alias_spellings_share_one_row_group_and_entry(self):
        """An alias is a name: one scenario under the four spellings of
        ``schedule-grid`` is one unique row in one plan group, solved
        once and cached under one key."""
        spellings = (
            "schedule-grid", "combined", "schedule-grid-jit",
            "schedule-grid-incremental",
        )
        scenarios = [
            Scenario(config="hera-xscale", rho=3.0, schedule="geom:0.4,1.5,1",
                     backend=name)
            for name in spellings
        ]
        plan = Experiment.from_scenarios(scenarios).plan()
        assert plan.n_unique == 1
        assert [g.backend for g in plan.groups] == ["schedule-grid"]
        cache = SolveCache()
        results = plan.execute(cache=cache)
        assert len(cache) == 1
        assert cache.stats() == (0, 1)
        assert {r.provenance.backend for r in results} == {"schedule-grid"}
        for name in spellings:
            forced = Experiment.from_scenarios(scenarios[:1]).plan(backend=name)
            assert [g.backend for g in forced.groups] == ["schedule-grid"]

    def test_forced_backend_validated_at_plan_time(self, hera_xscale):
        exp = Experiment.over(configs=(hera_xscale,), rhos=(3.0,), modes=("combined",),
                              failstop_fractions=(0.5,))
        with pytest.raises(UnsupportedScenarioError):
            exp.plan(backend="grid")  # grid has no combined mode
        with pytest.raises(UnknownBackendError):
            exp.plan(backend="no-such-backend")

    def test_describe_mentions_dedup_and_groups(self, hera_xscale):
        sc = Scenario(config=hera_xscale, rho=3.0)
        text = Experiment.from_scenarios([sc, sc]).plan().describe()
        assert "2 scenarios -> 1 unique" in text
        assert "firstorder" in text


class TestExecution:
    def test_results_align_with_request_order(self, hera_xscale):
        exp = Experiment.over(configs=(hera_xscale,), rhos=(3.0, 2.5, 3.0))
        results = exp.solve(cache=False)
        assert [r.scenario.rho for r in results] == [3.0, 2.5, 3.0]
        assert results[0].best.speed_pair == results[2].best.speed_pair

    def test_matches_scenario_solve_loop(self, hera_xscale, atlas_crusoe):
        exp = Experiment.over(
            configs=(hera_xscale, atlas_crusoe),
            rhos=(2.5, 3.0),
            modes=("silent", "single-speed"),
        )
        cache = SolveCache()
        via_exp = exp.solve(cache=cache)
        for a, sc in zip(via_exp, exp):
            try:
                b = sc.solve(cache=False)
            except InfeasibleBoundError:
                b = None
            assert a.feasible == (b is not None)
            if b is not None:
                assert a.best.speed_pair == b.best.speed_pair
                assert a.best.work == b.best.work
                assert a.best.energy_overhead == b.best.energy_overhead

    def test_deduplicated_scenarios_solved_once(self, hera_xscale):
        cache = SolveCache()
        sc = Scenario(config=hera_xscale, rho=3.0)
        exp = Experiment.from_scenarios([sc, sc, sc])
        results = exp.solve(cache=cache)
        # One unique solve: one miss on a cold cache, replays marked.
        assert cache.misses == 1
        assert results.cache_hits() == 2
        assert not results[0].provenance.cache_hit

    def test_duplicate_keeps_own_label(self, hera_xscale):
        a = Scenario(config=hera_xscale, rho=3.0)
        b = Scenario(config=hera_xscale, rho=3.0, label="mine")
        results = Experiment.from_scenarios([a, b]).solve(cache=False)
        assert results[1].scenario.label == "mine"
        assert results[1].best is results[0].best

    def test_cache_resume_replays_prior_run(self, hera_xscale):
        cache = SolveCache()
        exp = Experiment.over(configs=(hera_xscale,), rhos=(2.5, 3.0))
        exp.solve(cache=cache)
        again = exp.solve(cache=cache)
        assert again.cache_hits() == len(again)
        assert again.total_wall_time() == 0.0

    def test_partial_cache_resume_solves_only_remainder(self, hera_xscale):
        cache = SolveCache()
        Experiment.over(configs=(hera_xscale,), rhos=(2.5,)).solve(cache=cache)
        hits_before = cache.hits
        results = Experiment.over(configs=(hera_xscale,), rhos=(2.5, 3.0)).solve(
            cache=cache
        )
        assert cache.hits == hits_before + 1  # 2.5 replayed
        assert results.cache_hits() == 1

    def test_progress_callback_sees_all_shards(self, hera_xscale):
        ticks: list[PlanProgress] = []
        exp = Experiment.over(
            configs=(hera_xscale,),
            rhos=(2.5, 3.0),
            schedules=(None, "geom:0.4,1.5,1"),
        )
        exp.solve(cache=False, progress=ticks.append)
        assert ticks  # at least one tick per backend group
        last = ticks[-1]
        assert last.done_shards == last.total_shards == len(ticks)
        assert last.solved_scenarios == last.total_scenarios == len(exp)
        assert ticks[-1].fraction == 1.0
        assert {t.backend for t in ticks} == {"firstorder", "schedule-grid"}

    def test_fully_cached_run_emits_no_progress(self, hera_xscale):
        cache = SolveCache()
        exp = Experiment.over(configs=(hera_xscale,), rhos=(2.5, 3.0))
        exp.solve(cache=cache)
        ticks: list[PlanProgress] = []
        exp.solve(cache=cache, progress=ticks.append)
        assert ticks == []

    def test_strict_raises_on_infeasible(self, hera_xscale):
        exp = Experiment.over(configs=(hera_xscale,), rhos=(1.01,))
        with pytest.raises(InfeasibleBoundError):
            exp.solve(cache=False, strict=True)
        # Non-strict returns a best-less result instead.
        results = exp.solve(cache=False)
        assert not results[0].feasible

    def test_infeasible_results_cached(self, hera_xscale):
        # Infeasibility is a solve outcome: it is cached like any
        # other, so a repeated run replays the verdict instead of
        # re-solving the known-infeasible point.
        cache = SolveCache()
        exp = Experiment.over(configs=(hera_xscale,), rhos=(1.01,))
        first = exp.solve(cache=cache)
        assert not first[0].feasible
        assert len(cache) == 1
        again = exp.solve(cache=cache)
        assert not again[0].feasible
        assert again[0].provenance.cache_hit
        # Strict mode still raises on the replayed infeasible.
        with pytest.raises(InfeasibleBoundError):
            exp.solve(cache=cache, strict=True)

    def test_fully_cached_infeasible_grid_re_solves_nothing(self, hera_xscale):
        # Regression pin for the resume contract: once an infeasible
        # grid is fully cached, a re-execute issues zero backend calls
        # (no progress ticks == no solve shards ran).
        cache = SolveCache()
        exp = Experiment.over(configs=(hera_xscale,), rhos=(1.01, 1.02, 1.03))
        exp.solve(cache=cache)
        ticks: list[PlanProgress] = []
        replay = exp.solve(cache=cache, progress=ticks.append)
        assert ticks == []
        assert all(not r.feasible for r in replay)
        assert all(r.provenance.cache_hit for r in replay)

    def test_processes_fan_out(self, hera_xscale):
        exp = Experiment.over(configs=(hera_xscale,), rhos=(2.5, 3.0, 3.5, 4.0))
        serial = exp.solve(cache=False)
        parallel = exp.solve(cache=False, processes=2)
        for a, b in zip(serial, parallel):
            assert a.best.speed_pair == b.best.speed_pair
            assert a.best.energy_overhead == b.best.energy_overhead

    def test_renewal_model_general_schedule_end_to_end(self, hera_xscale):
        # The combination that was impossible pre-pipeline: a frontier
        # grid over a renewal error model under a non-two-speed
        # schedule, solved through the batched backend.
        exp = Experiment.over(
            configs=(hera_xscale,),
            rhos=tuple(np.linspace(3.0, 6.0, 5)),
            schedules=("geom:0.4,1.5,1",),
            error_models=("weibull:shape=0.7,mtbf=3e5",),
        )
        results = exp.solve(cache=False)
        assert results.backends_used() == ("schedule-grid",)
        assert all(r.feasible for r in results)
        assert all(r.provenance.batch_size == len(exp) for r in results)


class TestExecutionPlanDirect:
    def test_compile_then_execute_equals_solve(self, hera_xscale):
        exp = Experiment.over(configs=(hera_xscale,), rhos=(2.5, 3.0))
        plan = exp.plan()
        assert isinstance(plan, ExecutionPlan)
        a = plan.execute(cache=False)
        b = exp.solve(cache=False)
        for x, y in zip(a, b):
            assert x.best.energy_overhead == y.best.energy_overhead
