"""Batched schedule grids vs the scalar paths (golden equivalence).

The acceptance pins of PR 3: the ``schedule-grid`` backend and the
underlying :mod:`repro.schedules.vectorized` kernel must agree with the
per-scenario ``schedule`` backend — to ``1e-12`` relative error on the
energy objective for general schedules and the Section-5 rows (the
optimiser placement tolerance bounds ``work``/``time`` near ``1e-8``),
and byte-identically for error-free two-speed schedules, which keep the
Theorem-1 closed form.
Also here: ``ScheduleGrid.take`` sub-grids, ``SolverOptions``
validation, and threads sharing the registered backend instance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, Scenario, SolveCache, available_backends
from repro.api.backends import get_backend
from repro.errors import CombinedErrors, parse_error_model
from repro.exceptions import (
    InfeasibleBoundError,
    InvalidParameterError,
    UnsupportedScenarioError,
)
from repro.platforms import configuration_names, get_configuration
from repro.schedules import (
    DEFAULT_SOLVER_OPTIONS,
    Constant,
    Escalating,
    Geometric,
    ScheduleGrid,
    ScheduleSolution,
    SolverOptions,
    TwoSpeed,
    evaluate_schedule,
    evaluate_schedule_batch,
    parse_schedule,
    schedule_min_bound,
    solve_schedule_batch,
    solve_schedule_grid,
)

RHO = 3.0

#: Relative tolerances of the batched-vs-scalar pins.  Energy is the
#: solved objective (both optimisers polish far below 1e-12); work and
#: time inherit the scalar solver's SciPy placement tolerance (~1e-9
#: relative on W), so they are pinned an order of magnitude above it.
ENERGY_RTOL = 1e-12
PLACEMENT_RTOL = 1e-6

#: General (non-two-speed) policies, all feasible at RHO on hera-xscale
#: (the first attempt runs at >= 0.4, so 1/sigma1 stays below the bound).
GENERAL_SCHEDULES = (
    Escalating((0.4, 0.6, 0.8)),
    Escalating((0.6, 0.4, 0.8), terminal=1.0),
    Geometric(0.4, 1.5, sigma_max=1.0),
    Geometric(0.45, 1.4, sigma_max=0.9),
    Geometric(0.8, 0.5, sigma_max=1.0, sigma_min=0.2),
)


def _random_general_schedule(rng: np.random.Generator):
    """A schedule whose canonical head has >= 2 attempts (never a
    two-speed pair), so it exercises the batched kernel."""
    kind = rng.integers(0, 3)
    if kind == 0:
        n = int(rng.integers(3, 6))
        speeds = tuple(np.round(rng.uniform(0.15, 1.1, size=n), 3))
        sched = Escalating(speeds)
    elif kind == 1:
        s1 = float(np.round(rng.uniform(0.2, 0.5), 3))
        ratio = float(np.round(rng.uniform(1.2, 2.2), 3))
        sched = Geometric(s1, ratio, sigma_max=float(np.round(rng.uniform(0.8, 1.2), 3)))
    else:
        s1 = float(np.round(rng.uniform(0.6, 1.0), 3))
        ratio = float(np.round(rng.uniform(0.4, 0.8), 3))
        sched = Geometric(s1, ratio, sigma_max=1.2, sigma_min=0.15)
    if sched.as_two_speed() is not None:  # degenerate draw: retry
        return _random_general_schedule(rng)
    return sched


def _random_scenarios(rng: np.random.Generator, n: int) -> list[Scenario]:
    configs = configuration_names()
    out = []
    for _ in range(n):
        mode = ("silent", "combined")[int(rng.integers(0, 2))]
        out.append(
            Scenario(
                config=configs[int(rng.integers(0, len(configs)))],
                rho=float(np.round(rng.uniform(1.9, 6.0), 3)),
                mode=mode,
                failstop_fraction=(
                    float(np.round(rng.uniform(0.0, 1.0), 2))
                    if mode == "combined"
                    else None
                ),
                schedule=_random_general_schedule(rng),
            )
        )
    return out


def _assert_rows_agree(scalar, batched):
    """One scalar/batched result pair must agree within the pins."""
    assert batched.feasible == scalar.feasible
    if not scalar.feasible:
        assert batched.rho_min == pytest.approx(scalar.rho_min, rel=1e-6)
        return
    assert batched.best.energy_overhead == pytest.approx(
        scalar.best.energy_overhead, rel=ENERGY_RTOL
    )
    assert batched.best.work == pytest.approx(scalar.best.work, rel=PLACEMENT_RTOL)
    assert batched.best.time_overhead == pytest.approx(
        scalar.best.time_overhead, rel=PLACEMENT_RTOL
    )


def assert_matches_oracle(best, oracle):
    """A grid-kernel optimum against its scalar Section-5 oracle
    (``solve_pair_combined`` or a strict-improvement scan of it): the
    same speed pair and feasibility, energy within ``ENERGY_RTOL``,
    work and time within ``PLACEMENT_RTOL``."""
    assert (best is None) == (oracle is None)
    if oracle is None:
        return
    assert best.speed_pair == (oracle.sigma1, oracle.sigma2)
    assert best.energy_overhead == pytest.approx(
        oracle.energy_overhead, rel=ENERGY_RTOL
    )
    assert best.work == pytest.approx(oracle.work, rel=PLACEMENT_RTOL)
    assert best.time_overhead == pytest.approx(oracle.time_overhead, rel=PLACEMENT_RTOL)


class TestBatchedEvaluator:
    """evaluate_schedule_batch == a loop of evaluate_schedule."""

    def test_matches_scalar_on_shared_work_axis(self, hera_xscale):
        works = np.logspace(1, 5, 128)
        batch = evaluate_schedule_batch(hera_xscale, GENERAL_SCHEDULES, works)
        for i, sched in enumerate(GENERAL_SCHEDULES):
            ref = evaluate_schedule(hera_xscale, sched, works)
            np.testing.assert_allclose(batch.time[i], ref.time, rtol=1e-12)
            np.testing.assert_allclose(batch.energy[i], ref.energy, rtol=1e-12)
            np.testing.assert_allclose(batch.attempts[i], ref.attempts, rtol=1e-12)

    def test_row_values_do_not_depend_on_batch_composition(self, hera_xscale):
        """Head padding is masked out: a row evaluates identically alone
        and inside a batch of longer-headed schedules."""
        works = np.logspace(1, 4, 32)
        alone = evaluate_schedule_batch(hera_xscale, GENERAL_SCHEDULES[:1], works)
        together = evaluate_schedule_batch(hera_xscale, GENERAL_SCHEDULES, works)
        np.testing.assert_array_equal(alone.time[0], together.time[0])
        np.testing.assert_array_equal(alone.energy[0], together.energy[0])

    def test_combined_errors_per_row(self, toy_config):
        works = np.logspace(1, 3, 16)
        errs = [None, CombinedErrors(toy_config.lam, 0.5), CombinedErrors(toy_config.lam, 1.0)]
        scheds = GENERAL_SCHEDULES[:3]
        batch = evaluate_schedule_batch(toy_config, scheds, works, errors=errs)
        for i, (sched, err) in enumerate(zip(scheds, errs)):
            ref = evaluate_schedule(toy_config, sched, works, errors=err)
            np.testing.assert_allclose(batch.time[i], ref.time, rtol=1e-12)
            np.testing.assert_allclose(batch.energy[i], ref.energy, rtol=1e-12)

    def test_truncated_mode_matches_scalar(self, hera_xscale):
        works = np.logspace(1, 4, 16)
        batch = evaluate_schedule_batch(
            hera_xscale, GENERAL_SCHEDULES, works, max_attempts=9
        )
        assert batch.truncated
        for i, sched in enumerate(GENERAL_SCHEDULES):
            ref = evaluate_schedule(hera_xscale, sched, works, max_attempts=9)
            np.testing.assert_allclose(batch.time[i], ref.time, rtol=1e-12)
            np.testing.assert_allclose(
                batch.tail_bound_time[i], ref.tail_bound_time, rtol=1e-10
            )

    def test_scalar_work_gives_one_value_per_row(self, hera_xscale):
        batch = evaluate_schedule_batch(hera_xscale, GENERAL_SCHEDULES, 2764.0)
        assert batch.time.shape == (len(GENERAL_SCHEDULES),)


# ----------------------------------------------------------------------
# Hypothesis strategies: schedules and error models the grid accepts
# ----------------------------------------------------------------------

_speeds = st.floats(min_value=0.2, max_value=1.2, allow_nan=False)


@st.composite
def _schedules(draw):
    if draw(st.booleans()):
        head = tuple(draw(st.lists(_speeds, min_size=1, max_size=4)))
        terminal = draw(st.one_of(st.none(), _speeds))
        return Escalating(head, terminal=terminal)
    sigma1 = draw(st.floats(min_value=0.3, max_value=0.9))
    ratio = draw(st.floats(min_value=1.1, max_value=1.8))
    return Geometric(sigma1, ratio, sigma_max=1.2)


_models = st.sampled_from(
    [
        None,
        "exp:rate=3e-6",
        "exp:rate=1e-5,failstop=0.4",
        "weibull:shape=0.7,mtbf=3e5",
        "gamma:shape=2,mtbf=2e5",
    ]
)

HERA = get_configuration("hera-xscale")


def _assert_grid_matches_scalar(points, work) -> None:
    """``ScheduleGrid.evaluate`` row by row against ``evaluate_schedule``."""
    got = ScheduleGrid.from_points(points).evaluate(work)
    work = np.asarray(work, dtype=float)
    for i, (cfg, sched, errors) in enumerate(points):
        w = work if work.ndim < 2 else work[0 if work.shape[0] == 1 else i]
        ref = evaluate_schedule(cfg, sched, w, errors=errors)
        np.testing.assert_allclose(got.time[i], ref.time, rtol=ENERGY_RTOL)
        np.testing.assert_allclose(got.energy[i], ref.energy, rtol=ENERGY_RTOL)
        np.testing.assert_allclose(got.attempts[i], ref.attempts, rtol=ENERGY_RTOL)


class TestGridEvaluatorProperties:
    """Random schedules x error models: the grid evaluator agrees with
    the scalar exact evaluator to 1e-12 relative on every row shape."""

    @settings(max_examples=40, deadline=None)
    @given(
        schedule=_schedules(),
        model=_models,
        w=st.floats(min_value=1e2, max_value=1e5),
    )
    def test_single_row_matches_scalar(self, schedule, model, w):
        errors = None if model is None else parse_error_model(model)
        _assert_grid_matches_scalar([(HERA, schedule, errors)], float(w))

    @settings(max_examples=15, deadline=None)
    @given(
        schedules=st.lists(_schedules(), min_size=2, max_size=5),
        model=_models,
    )
    def test_stacked_grid_on_shared_work_row(self, schedules, model):
        """Multi-row grids with a shared work row (the solver's shape)."""
        errors = None if model is None else parse_error_model(model)
        points = [(HERA, s, errors) for s in schedules]
        _assert_grid_matches_scalar(points, np.logspace(2.0, 4.5, 7).reshape(1, -1))

    def test_per_row_work_panel(self):
        """(n, m) per-row work panels take the same path as shared rows."""
        points = [
            (HERA, Escalating((0.4, 0.6, 0.8)), None),
            (HERA, Geometric(0.5, 1.4, sigma_max=1.0), None),
        ]
        work = np.array([[500.0, 2e3, 8e3], [700.0, 3e3, 9e3]])
        _assert_grid_matches_scalar(points, work)


class TestGoldenSolveEquivalence:
    """The acceptance pin: schedule-grid == schedule, randomized grid."""

    def test_randomized_grid_agrees_with_scalar_backend(self):
        rng = np.random.default_rng(20260726)
        scenarios = _random_scenarios(rng, 48)
        scalar = get_backend("schedule").solve_batch(scenarios)
        batched = get_backend("schedule-grid").solve_batch(scenarios)
        assert sum(r.feasible for r in scalar) > len(scenarios) // 2  # non-trivial
        for s, b in zip(scalar, batched):
            _assert_rows_agree(s, b)

    def test_randomized_renewal_models_agree_with_scalar_backend(self):
        """Weibull and Gamma arrivals: the batched solve still matches
        the per-scenario exact solve on the energy objective."""
        rng = np.random.default_rng(20261017)
        scenarios = []
        for sc in _random_scenarios(rng, 40):
            family = ("weibull", "gamma")[int(rng.integers(0, 2))]
            shape = float(np.round(rng.uniform(0.5, 3.0), 2))
            mtbf = float(np.round(rng.uniform(1e5, 5e5), -3))
            fraction = float(np.round(rng.uniform(0.0, 0.6), 2))
            errors = f"{family}:shape={shape},mtbf={mtbf:g},failstop={fraction}"
            scenarios.append(
                Scenario(config=sc.config, rho=sc.rho, schedule=sc.schedule, errors=errors)
            )
        scalar = get_backend("schedule").solve_batch(scenarios)
        batched = get_backend("schedule-grid").solve_batch(scenarios)
        assert sum(r.feasible for r in scalar) > len(scenarios) // 2  # non-trivial
        for s, b in zip(scalar, batched):
            assert b.feasible == s.feasible
            if s.feasible:
                assert b.best.energy_overhead == pytest.approx(
                    s.best.energy_overhead, rel=ENERGY_RTOL
                )

    def test_named_schedules_across_catalog(self, any_config):
        scenarios = [
            Scenario(config=any_config, rho=RHO, schedule=s)
            for s in GENERAL_SCHEDULES
        ]
        scalar = get_backend("schedule").solve_batch(scenarios)
        batched = get_backend("schedule-grid").solve_batch(scenarios)
        for s, b in zip(scalar, batched):
            _assert_rows_agree(s, b)

    def test_two_speed_rows_byte_identical_via_fast_path(self, hera_xscale):
        scenarios = [
            Scenario(config="hera-xscale", rho=RHO, schedule=s)
            for s in (TwoSpeed(0.4, 0.6), Constant(0.5), TwoSpeed(0.6, 0.4))
        ]
        scalar = get_backend("schedule").solve_batch(scenarios)
        batched = get_backend("schedule-grid").solve_batch(scenarios)
        for s, b in zip(scalar, batched):
            assert b.best == s.best  # byte-identical PatternSolutions
            assert b.provenance.backend == "schedule-grid"

    def test_mixed_batch_keeps_scenario_order(self):
        scenarios = [
            Scenario(config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.6)),
            Scenario(config="hera-xscale", rho=RHO, schedule=GENERAL_SCHEDULES[0]),
            Scenario(config="atlas-crusoe", rho=RHO, schedule=TwoSpeed(0.45, 0.45)),
            Scenario(config="atlas-crusoe", rho=RHO, schedule=GENERAL_SCHEDULES[2]),
        ]
        results = get_backend("schedule-grid").solve_batch(scenarios)
        for sc, res in zip(scenarios, results):
            assert res.scenario is sc
            assert res.provenance.batch_size == len(scenarios)

    def test_single_solve_matches_batch_row(self):
        sched = GENERAL_SCHEDULES[2]
        single = Scenario(
            config="hera-xscale", rho=RHO, schedule=sched
        ).solve(backend="schedule-grid", cache=False)
        row = get_backend("schedule-grid").solve_batch(
            [Scenario(config="hera-xscale", rho=RHO, schedule=sched)]
        )[0]
        assert single.best == row.best

    def test_solve_schedule_batch_front_door(self, hera_xscale):
        sol = solve_schedule_batch(hera_xscale, GENERAL_SCHEDULES, RHO)
        assert len(sol) == len(GENERAL_SCHEDULES)
        assert sol.feasible.all()
        assert np.all(sol.time_overhead <= RHO + 1e-9)
        # per-schedule bounds broadcast too
        rhos = np.full(len(GENERAL_SCHEDULES), RHO)
        sol2 = solve_schedule_batch(hera_xscale, GENERAL_SCHEDULES, rhos)
        np.testing.assert_array_equal(sol.energy_overhead, sol2.energy_overhead)

    def test_infeasible_rows_report_rho_min(self, hera_xscale):
        sched = Escalating((0.4, 0.6, 0.8))
        sol = solve_schedule_batch(hera_xscale, [sched], 0.1)
        assert not sol.feasible[0]
        assert np.isnan(sol.work[0])
        assert sol.rho_min[0] == pytest.approx(
            schedule_min_bound(hera_xscale, sched), rel=1e-9
        )


class TestRoutingAndExperiment:
    def test_backend_registered(self):
        assert "schedule-grid" in available_backends()
        assert get_backend("schedule-grid").batched

    @pytest.mark.parametrize(
        "alias", ["combined", "schedule-grid-jit", "schedule-grid-incremental"]
    )
    def test_retired_name_is_an_alias(self, alias):
        """The retired tiers' names resolve to the ``schedule-grid``
        instance, so old specs solve bit-identically on it."""
        assert get_backend(alias) is get_backend("schedule-grid")
        scenarios = [
            Scenario(config="hera-xscale", rho=3.2, error_rate=1e-5,
                     schedule="esc:0.4,0.6,0.8"),
            Scenario(config="hera-xscale", rho=2.9,
                     errors="weibull:shape=0.7,mtbf=3e5",
                     schedule="geom:0.4,1.5,1"),
            Scenario(config="atlas-crusoe", rho=3.5, error_rate=3e-5,
                     schedule="two:0.8,1.1"),
        ]
        grid = [sc.solve(backend="schedule-grid", cache=False) for sc in scenarios]
        aliased = [sc.solve(backend=alias, cache=False) for sc in scenarios]
        for g, a in zip(grid, aliased):
            assert a.feasible and g.feasible
            assert a.best == g.best
            assert a.provenance.backend == "schedule-grid"

    def test_general_schedules_default_to_grid_backend(self):
        general = Scenario(
            config="hera-xscale", rho=RHO, schedule=Geometric(0.4, 1.5, sigma_max=1.0)
        )
        two = Scenario(config="hera-xscale", rho=RHO, schedule=TwoSpeed(0.4, 0.6))
        assert general.default_backend == "schedule-grid"
        assert two.default_backend == "schedule-grid"

    def test_experiment_routes_general_schedule_batches(self):
        exp = Experiment.over(
            configs=("hera-xscale",),
            rhos=(3.0, 3.5),
            schedules=(None, "two:0.4,0.6", "geom:0.4,1.5,1"),
        )
        results = exp.solve(cache=False)
        used = {r.scenario.schedule.spec() if r.scenario.schedule else None:
                r.provenance.backend for r in results}
        assert used[None] == "firstorder"
        assert used["two:0.4,0.6"] == "schedule-grid"
        assert used["geom:0.4,1.5,1"] == "schedule-grid"
        assert all(r.feasible for r in results)

    def test_unscheduled_scenario_rejected(self, hera_xscale):
        with pytest.raises(UnsupportedScenarioError):
            Scenario(config=hera_xscale, rho=RHO).solve(
                backend="schedule-grid", cache=False
            )

    def test_single_infeasible_solve_raises_with_rho_min(self, hera_xscale):
        sched = Escalating((0.4, 0.6, 0.8))
        with pytest.raises(InfeasibleBoundError) as exc:
            Scenario(config=hera_xscale, rho=0.1, schedule=sched).solve(cache=False)
        assert exc.value.rho_min == pytest.approx(
            schedule_min_bound(hera_xscale, sched), rel=1e-6
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"mode": "combined", "failstop_fraction": 0.5}, {"mode": "failstop"}],
        ids=["combined", "failstop"],
    )
    def test_infeasible_section5_row_carries_rho_min(self, hera_xscale, kwargs):
        sc = Scenario(config=hera_xscale, rho=1.01, **kwargs)
        result = Experiment.from_scenarios([sc]).solve(cache=False)[0]
        assert not result.feasible
        expected = min(
            schedule_min_bound(hera_xscale, TwoSpeed(s1, s2), sc.resolved_errors())
            for s1 in hera_xscale.speeds
            for s2 in hera_xscale.speeds
        )
        assert result.rho_min == pytest.approx(expected, rel=1e-6)
        with pytest.raises(InfeasibleBoundError) as exc:
            sc.solve(cache=False)
        assert exc.value.rho_min == result.rho_min

    def test_schedule_axis_experiment(self, hera_xscale):
        specs = ("two:0.4,0.6", "esc:0.4,0.6,0.8", "geom:0.4,1.5,1")
        results = Experiment.over(
            configs=(hera_xscale,), rhos=RHO, schedules=specs
        ).solve(cache=False)
        assert [r.scenario.schedule.spec() for r in results] == list(specs)
        assert results.feasible_mask().all()
        best = results[int(np.nanargmin(results.energy_overheads()))]
        assert best.best.energy_overhead == min(
            r.best.energy_overhead for r in results
        )

    def test_result_payload_is_schedule_solution(self):
        res = Scenario(
            config="hera-xscale", rho=RHO, schedule=GENERAL_SCHEDULES[0]
        ).solve(cache=False)
        assert res.provenance.backend == "schedule-grid"
        assert isinstance(res.best, ScheduleSolution)
        assert res.best.schedule == GENERAL_SCHEDULES[0]


class TestCacheIntegration:
    def test_grid_backend_results_are_cached(self):
        cache = SolveCache()
        sc = Scenario(config="hera-xscale", rho=RHO, schedule=GENERAL_SCHEDULES[1])
        first = sc.solve(cache=cache)
        second = sc.solve(cache=cache)
        assert not first.provenance.cache_hit
        assert second.provenance.cache_hit
        assert second.best is first.best

    def test_label_does_not_enter_the_cache_key(self):
        cache = SolveCache()
        plain = Scenario(config="hera-xscale", rho=RHO, schedule=GENERAL_SCHEDULES[1])
        labelled = Scenario(
            config="hera-xscale", rho=RHO, schedule=GENERAL_SCHEDULES[1],
            label="grid-point-7",
        )
        plain.solve(cache=cache)
        replay = labelled.solve(cache=cache)
        assert replay.provenance.cache_hit
        # ...but the replay carries the caller's label for exports.
        assert replay.scenario.label == "grid-point-7"

    def test_catalog_name_and_resolved_config_share_an_entry(self, hera_xscale):
        cache = SolveCache()
        Scenario(config="hera-xscale", rho=RHO).solve(cache=cache)
        replay = Scenario(config=hera_xscale, rho=RHO).solve(cache=cache)
        assert replay.provenance.cache_hit

    def test_backend_name_still_enters_the_key(self):
        cache = SolveCache()
        sc = Scenario(config="hera-xscale", rho=RHO, schedule=GENERAL_SCHEDULES[1])
        sc.solve(backend="schedule", cache=cache)
        fresh = sc.solve(backend="schedule-grid", cache=cache)
        assert not fresh.provenance.cache_hit
        assert len(cache) == 2


class TestProcessSharding:
    def test_sharded_fanout_matches_serial(self):
        exp = Experiment.over(
            configs=("hera-xscale", "atlas-crusoe"),
            rhos=(3.0, 3.5),
            schedules=("esc:0.4,0.6,0.8", "geom:0.4,1.5,1"),
        )
        serial = exp.solve(cache=False)
        fanned = exp.solve(cache=False, processes=2)
        for s, f in zip(serial, fanned):
            assert f.provenance.backend == s.provenance.backend
            assert f.feasible == s.feasible
            assert f.best.energy_overhead == pytest.approx(
                s.best.energy_overhead, rel=ENERGY_RTOL
            )
            assert f.best.work == pytest.approx(s.best.work, rel=PLACEMENT_RTOL)


class TestGridTake:
    def test_subset_rows_byte_identical(self, hera_xscale):
        points = [
            (hera_xscale, TwoSpeed(0.4, 0.8 + 0.02 * i), None) for i in range(7)
        ]
        grid = ScheduleGrid.from_points(points)
        idx = np.array([5, 1, 3])
        sub = grid.take(idx)
        assert sub.n == 3
        work = np.logspace(2, 4, 9)
        full = grid.evaluate(work)
        part = sub.evaluate(work)
        assert np.array_equal(full.time[idx], part.time)
        assert np.array_equal(full.energy[idx], part.energy)

    def test_duplicate_indices_rejected(self, hera_xscale):
        sched = parse_schedule("geom:0.4,1.5,1")
        grid = ScheduleGrid.from_points([(hera_xscale, sched, None)] * 4)
        with pytest.raises(InvalidParameterError, match="unique"):
            grid.take([1, 1, 2])


class TestSolverOptions:
    def test_defaults_change_nothing(self, hera_xscale):
        """A default-constructed options object is the historical solver."""
        sched = parse_schedule("geom:0.4,1.5,1")
        grid = ScheduleGrid.from_points([(hera_xscale, sched, None)] * 12)
        rhos = np.linspace(2.8, 5.0, 12)
        base = solve_schedule_grid(grid, rhos)
        explicit = solve_schedule_grid(grid, rhos, options=SolverOptions())
        assert SolverOptions() == DEFAULT_SOLVER_OPTIONS
        for field in ("work", "energy_overhead", "time_overhead",
                      "w_lo", "w_hi", "rho_min", "feasible"):
            assert np.array_equal(getattr(base, field), getattr(explicit, field))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"w_lo": 0.0}, "w_lo"),
            ({"w_lo": float("inf")}, "w_lo"),
            ({"w_hi": 1.0, "w_lo": 2.0}, "w_hi"),
            ({"coarse": 2}, "coarse"),
            ({"bisect_iters": 0}, "bisect_iters"),
            ({"golden_iters": 1}, "golden_iters"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(InvalidParameterError, match=match):
            SolverOptions(**kwargs)


class TestConcurrency:
    @pytest.mark.parametrize(
        "name", ["schedule-grid", "schedule-grid-incremental"]
    )
    def test_concurrent_sweeps_match_serial_solves(self, name):
        """Threads share a registered backend instance (as the service's
        job workers do): each thread's sweep must come back exactly as
        its serial solve did."""
        import os
        import sys
        import threading

        backend = get_backend(name)
        sweeps = [
            [
                Scenario(config="hera-xscale", rho=float(r),
                         schedule="geom:0.4,1.5,1")
                for r in np.linspace(2.8, 4.5, 40)
            ],
            [
                Scenario(
                    config="atlas-crusoe",
                    rho=float(r),
                    error_rate=3e-5,
                    schedule="esc:0.4,0.6,0.8",
                )
                for r in np.linspace(3.0, 6.0, 30)
            ],
        ]

        def fields(results):
            return [
                (
                    r.feasible,
                    r.rho_min,
                    None
                    if r.best is None
                    else (
                        r.best.work,
                        r.best.energy_overhead,
                        r.best.time_overhead,
                        r.best.interval,
                    ),
                )
                for r in results
            ]

        serial = [fields(backend.solve_batch(sweep)) for sweep in sweeps]
        assert any(f[0] for f in serial[0]) and any(f[0] for f in serial[1])
        # More threads than cores and a short switch interval, so the
        # batches interleave finely inside the shared instance.
        n_threads = min(2 * (os.cpu_count() or 2), 8)
        start = threading.Barrier(n_threads)
        threaded: list[list] = [[] for _ in range(n_threads)]

        def worker(k: int) -> None:
            start.wait(timeout=60)
            for _ in range(2):
                threaded[k].append(fields(backend.solve_batch(sweeps[k % 2])))

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, runs in enumerate(threaded):
            assert runs == [serial[k % 2]] * 2
