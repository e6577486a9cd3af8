"""Scenario/Experiment/backends integration of the pluggable error models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment, Scenario
from repro.api.backends import get_backend
from repro.api.cache import SolveCache
from repro.errors import (
    CombinedErrors,
    ErrorModel,
    ExponentialArrivals,
    GammaArrivals,
    parse_error_model,
)
from repro.exceptions import (
    InfeasibleBoundError,
    InvalidParameterError,
    UnsupportedScenarioError,
)
from repro.failstop.solver import solve_pair_combined

from ..schedules.test_vectorized import assert_matches_oracle

WEIBULL = "weibull:shape=0.7,mtbf=3e5,failstop=0.2"
GAMMA = "gamma:shape=2,mtbf=3e5"


class TestScenarioField:
    def test_spec_string_coerces_to_model(self):
        sc = Scenario(config="hera-xscale", rho=3.0, errors=WEIBULL)
        assert isinstance(sc.errors, ErrorModel)
        assert sc.errors.process.kind == "weibull"
        assert sc.effective_failstop_fraction == 0.2

    def test_process_and_combined_coerce(self):
        proc = GammaArrivals.from_mtbf(shape=2.0, mtbf=3e5)
        sc = Scenario(config="hera-xscale", rho=3.0, errors=proc)
        assert sc.errors == ErrorModel(process=proc)
        legacy = CombinedErrors(1e-5, 0.5)
        sc2 = Scenario(config="hera-xscale", rho=3.0, errors=legacy)
        assert sc2.resolved_errors() == ErrorModel(ExponentialArrivals(1e-5), 0.5)
        assert sc2.resolved_errors().to_combined() == legacy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "combined", "failstop_fraction": 0.5},
            {"mode": "failstop"},
            {"failstop_fraction": 0.5},
            {"error_rate": 1e-4},
        ],
    )
    def test_conflicting_fields_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Scenario(config="hera-xscale", rho=3.0, errors=WEIBULL, **kwargs)

    def test_describe_and_with_errors(self):
        sc = Scenario(config="hera-xscale", rho=3.0, errors=GAMMA)
        assert "gamma:shape=2" in sc.describe()
        assert sc.with_errors(None).errors is None
        assert sc.with_errors(WEIBULL).errors.process.kind == "weibull"

    def test_resolved_errors_returns_the_model(self):
        # Memoryless or not, an explicit model comes back as itself.
        sc = Scenario(config="hera-xscale", rho=3.0, errors="exp:rate=1e-4,failstop=0.5")
        resolved = sc.resolved_errors()
        assert resolved is sc.errors and resolved.is_memoryless
        assert resolved == ErrorModel(ExponentialArrivals(1e-4), 0.5)
        sc2 = Scenario(config="hera-xscale", rho=3.0, errors=WEIBULL)
        assert sc2.resolved_errors() is sc2.errors

    @pytest.mark.parametrize(
        "kwargs, fraction",
        [({"mode": "combined", "failstop_fraction": 0.5}, 0.5), ({"mode": "failstop"}, 1.0)],
        ids=["combined", "failstop"],
    )
    def test_mode_based_scenarios_resolve_to_exponential_models(self, kwargs, fraction):
        sc = Scenario(config="hera-xscale", rho=3.0, **kwargs)
        assert sc.errors is None
        lam = sc.resolved_config().lam
        assert sc.resolved_errors() == ErrorModel(ExponentialArrivals(lam), fraction)
        # ... and solve bit for bit as the equivalent exp: model.
        spec = Scenario(config="hera-xscale", rho=3.0, errors=f"exp:rate={lam!r},failstop={fraction}")
        assert sc.solve(cache=False).best == spec.solve(cache=False).best


class TestRouting:
    def test_default_backends(self):
        """The routing table: ``firstorder`` for the schedule-less
        silent/single-speed model without an explicit error model,
        ``schedule-grid`` for every other valid combination."""
        modes = {
            "silent": {},
            "single-speed": {"mode": "single-speed"},
            "combined": {"mode": "combined", "failstop_fraction": 0.5},
            "failstop": {"mode": "failstop"},
        }
        scenarios = []
        for mode, kwargs in modes.items():
            for schedule in (None, "two:0.4,0.6", "geom:0.4,1.5,1"):
                for errors in (None, "exp:rate=1e-5,failstop=0.3", WEIBULL):
                    if schedule is not None and mode == "single-speed":
                        continue  # rejected: the diagonal is a Constant schedule
                    if errors is not None and mode != "silent":
                        continue  # rejected: the model carries its own split
                    sc = Scenario(
                        config="hera-xscale",
                        rho=3.0,
                        schedule=schedule,
                        errors=errors,
                        **kwargs,
                    )
                    expected = (
                        "firstorder"
                        if schedule is None
                        and errors is None
                        and mode in ("silent", "single-speed")
                        else "schedule-grid"
                    )
                    assert sc.default_backend == expected, sc.describe()
                    scenarios.append(sc)
        assert len(scenarios) == 16
        results = Experiment.from_scenarios(scenarios).solve(cache=False)
        assert set(results.backends_used()) == {"firstorder", "schedule-grid"}
        for sc, res in zip(scenarios, results):
            assert res.provenance.backend == sc.default_backend

    @pytest.mark.parametrize("backend", ["firstorder", "exact", "grid"])
    def test_legacy_backends_refuse_models(self, backend):
        sc = Scenario(config="hera-xscale", rho=3.0, errors=WEIBULL)
        with pytest.raises(UnsupportedScenarioError):
            sc.solve(backend=backend, cache=False)

    def test_schedule_grid_requires_schedule_or_model(self):
        sc = Scenario(config="hera-xscale", rho=3.0)
        assert get_backend("schedule-grid").supports(sc) is False
        assert get_backend("schedule-grid").supports(sc.with_errors(WEIBULL)) is True


def _reference_pair_loop(sc):
    """Scalar Section-5 oracle: the strict-improvement scan of the legacy
    combined solver over the s1-major pair axis."""
    cfg = sc.resolved_config()
    errors = sc.resolved_errors()
    best = None
    for s1 in cfg.speeds:
        for s2 in cfg.speeds:
            sol = solve_pair_combined(cfg, errors, s1, s2, sc.rho)
            if sol is not None and (
                best is None or sol.energy_overhead < best.energy_overhead
            ):
                best = sol
    return best


class TestExponentialEquivalencePins:
    """errors="exp:..." must reproduce the legacy solves byte for byte."""

    def test_pair_enumeration_matches_combined_backend(self, any_config):
        lam = any_config.lam
        a = Scenario(
            config=any_config, rho=3.0, errors=f"exp:rate={lam!r},failstop=0.5"
        ).solve(cache=False)
        b = Scenario(
            config=any_config, rho=3.0, mode="combined", failstop_fraction=0.5
        ).solve(backend="combined", cache=False)
        assert a.provenance.backend == "schedule-grid"
        assert (a.best.sigma1, a.best.sigma2) == (b.best.sigma1, b.best.sigma2)
        assert a.best.work == b.best.work
        assert a.best.energy_overhead == b.best.energy_overhead
        assert a.best.time_overhead == b.best.time_overhead
        # The Section-5 modes on their default route (pair blocks of one
        # grid) agree with the scalar oracle, solve_pair_combined over the
        # pairs in s1-major order keeping only strict improvements, to the
        # grid kernel's tolerances.
        for rho, kwargs in (
            (1.2, {"mode": "combined", "failstop_fraction": 0.3}),
            (2.0, {"mode": "failstop"}),
        ):
            sc = Scenario(config=any_config, rho=rho, **kwargs)
            assert sc.default_backend == "schedule-grid"
            best = sc.solve(cache=False).best
            assert_matches_oracle(best, _reference_pair_loop(sc))

    def test_two_speed_schedule_matches_combined_mode(self, hera_xscale):
        lam = hera_xscale.lam
        a = Scenario(
            config=hera_xscale,
            rho=3.0,
            schedule="two:0.4,0.6",
            errors=f"exp:rate={lam!r},failstop=0.5",
        ).solve(cache=False)
        b = Scenario(
            config=hera_xscale,
            rho=3.0,
            schedule="two:0.4,0.6",
            mode="combined",
            failstop_fraction=0.5,
        ).solve(cache=False)
        assert a.provenance.backend == b.provenance.backend == "schedule-grid"
        assert a.best.work == b.best.work
        assert a.best.energy_overhead == b.best.energy_overhead

    def test_general_schedule_exponential_model_matches_mode(self, hera_xscale):
        lam = hera_xscale.lam
        a = Scenario(
            config=hera_xscale,
            rho=3.0,
            schedule="geom:0.4,1.5,1",
            errors=f"exp:rate={lam!r},failstop=0.25",
        ).solve(cache=False)
        b = Scenario(
            config=hera_xscale,
            rho=3.0,
            schedule="geom:0.4,1.5,1",
            mode="combined",
            failstop_fraction=0.25,
        ).solve(cache=False)
        assert a.best.work == b.best.work
        assert a.best.energy_overhead == b.best.energy_overhead


class TestRenewalSolves:
    def test_pair_enumeration_weibull(self, hera_xscale):
        res = Scenario(config=hera_xscale, rho=3.0, errors=WEIBULL).solve(cache=False)
        assert res.feasible
        assert res.provenance.backend == "schedule-grid"
        # The winner is one of the platform's DVFS pairs.
        assert res.best.sigma1 in hera_xscale.speeds
        assert res.best.sigma2 in hera_xscale.speeds
        assert res.best.time_overhead <= 3.0 + 1e-9

    def test_pair_enumeration_beats_or_ties_every_pair(self, hera_xscale):
        """The enumerated optimum is the argmin over explicit TwoSpeed
        solves of the same model."""
        from repro.schedules import TwoSpeed

        model = parse_error_model(WEIBULL)
        res = Scenario(config=hera_xscale, rho=3.0, errors=model).solve(cache=False)
        per_pair = get_backend("schedule-grid").solve_batch(
            [
                Scenario(
                    config=hera_xscale, rho=3.0, errors=model, schedule=TwoSpeed(s1, s2)
                )
                for s1 in hera_xscale.speeds
                for s2 in hera_xscale.speeds
            ]
        )
        best = min(
            (r.best.energy_overhead for r in per_pair if r.feasible), default=np.inf
        )
        assert res.best.energy_overhead == pytest.approx(best, rel=1e-12)

    def test_infeasible_bound_reports_rho_min(self, hera_xscale):
        sc = Scenario(
            config=hera_xscale, rho=0.5, errors=WEIBULL, schedule="geom:0.4,1.5,1"
        )
        with pytest.raises(InfeasibleBoundError) as exc:
            sc.solve(cache=False)
        assert exc.value.rho_min is not None and exc.value.rho_min > 0.5

    def test_infeasible_pair_enumeration_reports_rho_min(self, hera_xscale):
        sc = Scenario(config=hera_xscale, rho=0.5, errors=WEIBULL)
        with pytest.raises(InfeasibleBoundError) as exc:
            sc.solve(cache=False)
        assert exc.value.rho_min is not None

    def test_empty_speed_axis_is_infeasible_not_a_crash(self, hera_xscale):
        """A degenerate speeds=() restriction must come back infeasible
        — for renewal models too, solo and inside a mixed batch (the
        empty pair block must not poison the shared grid)."""
        solo = Scenario(config=hera_xscale, rho=3.0, errors=WEIBULL, speeds=())
        with pytest.raises(InfeasibleBoundError):
            solo.solve(cache=False)
        healthy = Scenario(
            config=hera_xscale, rho=3.0, errors=GAMMA, schedule="geom:0.4,1.5,1"
        )
        batch = get_backend("schedule-grid").solve_batch([solo, healthy])
        assert not batch[0].feasible
        assert batch[1].feasible
        # Same contract as the memoryless enumeration.
        exp = Scenario(
            config=hera_xscale, rho=3.0, errors="exp:rate=1e-5", speeds=()
        )
        with pytest.raises(InfeasibleBoundError):
            exp.solve(cache=False)

    def test_speed_restrictions_apply_to_enumeration(self, hera_xscale):
        res = Scenario(
            config=hera_xscale,
            rho=3.0,
            errors=WEIBULL,
            speeds=(0.6,),
            sigma2_choices=(0.6, 0.8),
        ).solve(cache=False)
        assert res.best.sigma1 == 0.6
        assert res.best.sigma2 in (0.6, 0.8)

    def test_result_simulate_closes_the_loop(self, hera_xscale):
        cfg = hera_xscale.with_error_rate(2e-4)  # visible failure counts
        res = Scenario(
            config=cfg,
            rho=4.5,
            errors="gamma:shape=2,mtbf=5000",
            schedule="geom:0.4,1.5,1",
        ).solve(cache=False)
        report = res.simulate(n=8000, rng=97)
        assert report.agrees()


class TestCacheAndExports:
    def test_cache_shares_equivalent_spellings(self, hera_xscale):
        cache = SolveCache()
        model = parse_error_model(WEIBULL)
        a = Scenario(config="hera-xscale", rho=3.0, errors=WEIBULL)
        b = Scenario(
            config="hera-xscale",
            rho=3.0,
            errors=parse_error_model(model.spec()),
            label="relabelled",
        )
        r1 = a.solve(cache=cache)
        r2 = b.solve(cache=cache)
        assert not r1.provenance.cache_hit
        assert r2.provenance.cache_hit
        assert r2.best.energy_overhead == r1.best.energy_overhead

    def test_different_models_do_not_collide(self, hera_xscale):
        cache = SolveCache()
        a = Scenario(config="hera-xscale", rho=3.0, errors=WEIBULL)
        b = Scenario(config="hera-xscale", rho=3.0, errors=GAMMA)
        a.solve(cache=cache)
        r2 = b.solve(cache=cache)
        assert not r2.provenance.cache_hit

    def test_csv_round_trip_carries_errors_column(self, tmp_path):
        from repro.reporting.csvio import read_series_csv_rows

        res = Scenario(config="hera-xscale", rho=3.0, errors=WEIBULL).solve(cache=False)
        from repro.api.result import ResultSet

        path = ResultSet(results=(res,), name="t").to_csv(tmp_path / "out.csv")
        rows = read_series_csv_rows(path)
        assert len(rows) == 1
        assert rows[0]["errors"] == res.scenario.errors.spec()
        assert rows[0]["backend"] == "schedule-grid"

    def test_serialized_payload_restores_model(self):
        from repro.errors import error_model_from_dict

        res = Scenario(config="hera-xscale", rho=3.0, errors=GAMMA).solve(cache=False)
        payload = res.to_dict()
        restored = error_model_from_dict(payload["scenario"]["errors"])
        assert restored == res.scenario.errors

    def test_mode_scenario_payload_has_none_errors(self):
        res = Scenario(config="hera-xscale", rho=3.0).solve(cache=False)
        assert res.to_dict()["scenario"]["errors"] is None


class TestExperimentGrids:
    def test_over_error_models_axis(self):
        exp = Experiment.over(
            configs=("hera-xscale",),
            rhos=(3.0,),
            error_models=(None, WEIBULL, GAMMA),
            schedules=("geom:0.4,1.5,1",),
        )
        assert len(exp) == 3
        kinds = [
            None if sc.errors is None else sc.errors.process.kind
            for sc in exp
        ]
        assert kinds == [None, "weibull", "gamma"]

    def test_model_axis_suppresses_rate_axis(self):
        exp = Experiment.over(
            configs=("hera-xscale",),
            rhos=(3.0,),
            error_rates=(1e-5, 1e-4),
            error_models=(None, WEIBULL),
        )
        # None model x 2 rates + weibull model x (rate suppressed).
        assert len(exp) == 3

    def test_model_axis_skips_non_silent_modes(self):
        exp = Experiment.over(
            configs=("hera-xscale",),
            rhos=(3.0,),
            modes=("silent", "failstop"),
            error_models=(None, WEIBULL),
        )
        # silent: None + weibull; failstop: None only.
        assert len(exp) == 3

    def test_mixed_model_grid_solves_through_schedule_grid(self, hera_xscale):
        """The acceptance pin: a mixed exponential/renewal model grid
        batches through the schedule-grid backend and matches the
        per-scenario route."""
        lam = hera_xscale.lam
        exp = Experiment.over(
            configs=("hera-xscale",),
            rhos=(3.0, 4.0),
            error_models=(f"exp:rate={lam!r},failstop=0.5", WEIBULL, GAMMA),
            schedules=("geom:0.4,1.5,1", "esc:0.4,0.6,0.8"),
        )
        assert len(exp) == 12
        results = exp.solve(cache=False)
        assert set(results.backends_used()) == {"schedule-grid"}
        for res in results:
            assert res.feasible
            solo = res.scenario.solve(cache=False)
            assert res.best.energy_overhead == pytest.approx(
                solo.best.energy_overhead, rel=1e-10
            )

    def test_over_axis_with_errors(self, hera_xscale):
        from repro.sweep.axes import axis_by_name

        axis = axis_by_name("C", n=3)
        exp = Experiment.over_axis(hera_xscale, 3.0, axis, errors=GAMMA)
        assert len(exp) == 3
        assert all(sc.errors.process.kind == "gamma" for sc in exp)
        results = exp.solve(cache=False)
        assert all(r.feasible for r in results)
