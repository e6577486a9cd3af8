"""Unit tests for the pluggable renewal error-model subsystem."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from repro.errors import (
    CombinedErrors,
    ErrorModel,
    ExponentialArrivals,
    GammaArrivals,
    TraceArrivals,
    WeibullArrivals,
    as_error_model,
    error_model_from_dict,
    error_model_kinds,
    parse_error_model,
    require_memoryless,
)
from repro.exceptions import InvalidParameterError, UnsupportedErrorModelError

ALL_PROCESSES = [
    ExponentialArrivals(rate=1e-4),
    WeibullArrivals.from_mtbf(shape=0.7, mtbf=5e3),
    WeibullArrivals.from_mtbf(shape=1.8, mtbf=5e3),
    GammaArrivals.from_mtbf(shape=2.0, mtbf=5e3),
    GammaArrivals.from_mtbf(shape=0.5, mtbf=5e3),
    TraceArrivals(times=(900.0, 4e3, 1.2e4, 2.5e4, 300.0)),
]


class TestProcessPrimitives:
    @pytest.mark.parametrize("proc", ALL_PROCESSES, ids=lambda p: p.spec())
    def test_cdf_bounds_and_monotonicity(self, proc):
        t = np.geomspace(1e-3, 1e7, 200)
        p = proc.failure_probability(t)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert np.all(np.diff(p) >= 0.0)
        assert proc.failure_probability(0.0) == 0.0

    @pytest.mark.parametrize("proc", ALL_PROCESSES, ids=lambda p: p.spec())
    def test_survival_complements_cdf(self, proc):
        t = np.geomspace(1.0, 1e6, 50)
        np.testing.assert_allclose(
            proc.survival_probability(t), 1.0 - proc.failure_probability(t),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("proc", ALL_PROCESSES, ids=lambda p: p.spec())
    def test_expected_exposure_is_survival_integral(self, proc):
        # E[min(X, t)] = integral_0^t S(u) du — the defining identity.
        for t in (50.0, 2e3, 3e4):
            num = quad(
                lambda u: float(proc.survival_probability(u)), 0.0, t, limit=400
            )[0]
            assert proc.expected_exposure(t) == pytest.approx(num, rel=1e-6)

    @pytest.mark.parametrize("proc", ALL_PROCESSES, ids=lambda p: p.spec())
    def test_expected_exposure_limits(self, proc):
        # Tiny window: nothing arrives, the full window is paid.
        assert proc.expected_exposure(1e-9) == pytest.approx(1e-9, rel=1e-6)
        # Huge window: converges to the mean inter-arrival time.
        assert proc.expected_exposure(1e12) == pytest.approx(proc.mtbf, rel=1e-6)

    @pytest.mark.parametrize("proc", ALL_PROCESSES, ids=lambda p: p.spec())
    def test_sampling_matches_cdf_and_mean(self, proc):
        rng = np.random.default_rng(1234)
        x = proc.sample_interarrivals(rng, 200_000)
        assert x.shape == (200_000,)
        assert np.all(x >= 0.0)
        # Sample mean ~ mtbf within 5 standard errors.
        sem = np.std(x) / np.sqrt(x.size)
        assert abs(np.mean(x) - proc.mtbf) < 5 * sem
        # Empirical CDF at a few windows tracks the analytic CDF.
        for t in (1e3, 5e3, 2e4):
            emp = np.mean(x <= t)
            assert emp == pytest.approx(proc.failure_probability(t), abs=0.01)

    @pytest.mark.parametrize("proc", ALL_PROCESSES, ids=lambda p: p.spec())
    def test_thinned_scales_mtbf(self, proc):
        assert proc.thinned(0.25).mtbf == pytest.approx(proc.mtbf / 0.25, rel=1e-12)
        assert type(proc.thinned(0.25)) is type(proc)

    @pytest.mark.parametrize("proc", ALL_PROCESSES, ids=lambda p: p.spec())
    def test_expected_time_lost_is_conditional_mean(self, proc):
        # E[X | X < t] * P(X < t) + t * S(t) == E[min(X, t)].
        for t in (2e3, 3e4):
            p = proc.failure_probability(t)
            lhs = proc.expected_time_lost(t) * p + t * proc.survival_probability(t)
            assert lhs == pytest.approx(proc.expected_exposure(t), rel=1e-9)

    def test_negative_exposure_rejected(self):
        with pytest.raises(InvalidParameterError):
            ALL_PROCESSES[1].failure_probability(-1.0)


class TestExponentialByteIdentity:
    """The exp family must be bit-for-bit the exponential closed forms."""

    def test_primitives_match_exponential_closed_forms(self):
        rate = 3.38e-6
        proc = ExponentialArrivals(rate=rate)
        t = np.geomspace(1e-3, 1e9, 300)
        x = rate * t
        with np.errstate(over="ignore"):
            lost = np.where(x < 1e-8, t / 2.0 * (1.0 - x / 6.0), 1.0 / rate - t / np.expm1(x))
        assert np.array_equal(proc.failure_probability(t), -np.expm1(-rate * t))
        assert np.array_equal(proc.survival_probability(t), np.exp(-rate * t))
        assert np.array_equal(proc.expected_time_lost(t), lost)

    def test_model_attempt_primitives_match_section5_closed_forms(self):
        from repro.failstop.exact import _parts
        from repro.platforms import get_configuration

        cfg = get_configuration("hera-xscale")
        V = cfg.verification_time
        w = np.geomspace(1.0, 1e6, 100)
        for f in (0.0, 0.25, 1.0):
            legacy = CombinedErrors(total_rate=5e-4, failstop_fraction=f)
            model = as_error_model(legacy)
            assert model.is_memoryless
            for speed in (0.4, 0.7, 1.0):
                with np.errstate(over="ignore"):  # its 1/q2 overflows; unused here
                    _, one_minus_q, _, capped, _ = _parts(cfg, legacy, w, speed, speed)
                assert np.array_equal(model.attempt_failure_probability(w, speed, V), one_minus_q)
                assert np.array_equal(model.attempt_exposure(w, speed, V), capped)

    def test_round_trip_combined_model_combined(self):
        legacy = CombinedErrors(total_rate=7e-5, failstop_fraction=0.3)
        assert as_error_model(legacy).to_combined() == legacy


class TestTraceArrivals:
    def test_ecdf_is_exact(self):
        tr = TraceArrivals(times=(100.0, 200.0, 5000.0))
        assert tr.failure_probability(50.0) == 0.0
        assert tr.failure_probability(100.0) == pytest.approx(1 / 3)
        assert tr.failure_probability(200.0) == pytest.approx(2 / 3)
        assert tr.failure_probability(1e9) == 1.0

    def test_expected_exposure_is_sample_mean(self):
        tr = TraceArrivals(times=(100.0, 200.0, 5000.0))
        t = 150.0
        expect = np.mean(np.minimum(np.array(tr.times), t))
        assert tr.expected_exposure(t) == pytest.approx(expect, rel=1e-14)
        assert tr.expected_exposure(1e9) == tr.mtbf

    def test_order_insensitive_identity(self):
        a = TraceArrivals(times=(1.0, 2.0, 3.0))
        b = TraceArrivals(times=(3.0, 1.0, 2.0))
        assert a == b and hash(a) == hash(b)

    def test_from_log(self, tmp_path):
        log = tmp_path / "failures.log"
        log.write_text("# one inter-arrival per line\n900\n4e3\n\n1.2e4  # tail\n")
        tr = TraceArrivals.from_log(log)
        assert tr.times == (900.0, 4e3, 1.2e4)
        assert tr.source == str(log)
        # The spec round-trips through the file.
        model = ErrorModel(process=tr, failstop_fraction=0.5)
        assert parse_error_model(model.spec()) == model

    def test_from_log_rejects_garbage(self, tmp_path):
        log = tmp_path / "bad.log"
        log.write_text("12\nnot-a-number\n")
        with pytest.raises(InvalidParameterError):
            TraceArrivals.from_log(log)

    def test_from_log_missing_file_is_typed(self, tmp_path):
        # A bad trace:file= path must surface the same typed error as
        # any other malformed spec, not a raw OSError (the CLI's
        # "invalid scenario:" handlers only catch InvalidParameterError).
        with pytest.raises(InvalidParameterError, match="cannot read"):
            TraceArrivals.from_log(tmp_path / "missing.log")
        with pytest.raises(InvalidParameterError):
            parse_error_model(f"trace:file={tmp_path / 'missing.log'}")

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            TraceArrivals(times=())
        with pytest.raises(InvalidParameterError):
            TraceArrivals(times=(1.0, -2.0))


class TestErrorModel:
    def test_split_semantics(self):
        model = parse_error_model("weibull:shape=0.7,mtbf=5e3,failstop=0.2")
        assert model.failstop_arrivals.mtbf == pytest.approx(5e3 / 0.2, rel=1e-12)
        assert model.silent_arrivals.mtbf == pytest.approx(5e3 / 0.8, rel=1e-12)
        # Shape is preserved by the split.
        assert model.failstop_arrivals.shape == 0.7

    def test_pure_splits_reuse_the_process(self):
        silent = parse_error_model("gamma:shape=2,mtbf=5e3")
        assert silent.failstop_arrivals is None
        assert silent.silent_arrivals is silent.process
        failstop = parse_error_model("gamma:shape=2,mtbf=5e3,failstop=1")
        assert failstop.silent_arrivals is None
        assert failstop.failstop_arrivals is failstop.process

    def test_underflowed_exponential_source_is_absent(self):
        # A denormal split is a valid CombinedErrors: its fail-stop rate
        # underflows to 0, which the closed forms read as no source.
        model = as_error_model(CombinedErrors(1e-6, 5e-324))
        assert model.failstop_arrivals is None
        assert model.silent_arrivals.rate == 1e-6
        assert model.failstop_fraction == 5e-324
        # A renewal family cannot stretch its MTBF to infinity.
        with pytest.raises(InvalidParameterError):
            parse_error_model("weibull:shape=0.7,mtbf=5e3,failstop=5e-324")

    def test_attempt_primitives_mirror_combined_contract(self):
        model = parse_error_model("weibull:shape=0.7,mtbf=5e3,failstop=0.2")
        w = np.array([100.0, 1e3, 1e4])
        p = model.attempt_failure_probability(w, 0.5, 5.0)
        m = model.attempt_exposure(w, 0.5, 5.0)
        assert np.all((p > 0) & (p < 1))
        # Busy time is capped by the attempt window and positive.
        tau = (w + 5.0) / 0.5
        assert np.all(m > 0) and np.all(m <= tau)
        with pytest.raises(ValueError):
            model.attempt_failure_probability(-1.0, 0.5)
        with pytest.raises(ValueError):
            model.attempt_exposure(100.0, 0.0)

    def test_silent_only_pays_full_window(self):
        model = parse_error_model("gamma:shape=2,mtbf=5e3")
        w = np.array([100.0, 1e4])
        np.testing.assert_array_equal(
            model.attempt_exposure(w, 0.5, 5.0), (w + 5.0) / 0.5
        )

    def test_fraction_validation(self):
        proc = GammaArrivals(shape=2.0, scale=100.0)
        with pytest.raises(InvalidParameterError):
            ErrorModel(process=proc, failstop_fraction=1.5)
        with pytest.raises(InvalidParameterError):
            ErrorModel(process="gamma", failstop_fraction=0.5)  # type: ignore[arg-type]

    def test_to_combined_requires_memoryless(self):
        model = parse_error_model("weibull:shape=0.7,mtbf=5e3")
        with pytest.raises(UnsupportedErrorModelError):
            model.to_combined()

    def test_with_failstop_fraction(self):
        model = parse_error_model("gamma:shape=2,mtbf=5e3")
        assert model.with_failstop_fraction(0.4).failstop_fraction == 0.4
        assert model.with_failstop_fraction(0.4).process == model.process


class TestSpecParsing:
    def test_mtbf_sugar_equals_explicit_scale(self):
        a = parse_error_model("weibull:shape=0.7,mtbf=5e3")
        assert a.process.mtbf == pytest.approx(5e3, rel=1e-12)
        b = parse_error_model(f"weibull:shape=0.7,scale={a.process.scale!r}")
        assert a == b
        g = parse_error_model("gamma:shape=2,mtbf=5e3")
        assert g.process.scale == 2500.0

    @pytest.mark.parametrize(
        "bad",
        [
            "nope:shape=1",
            "weibull:shape=0.7",  # missing scale/mtbf
            "weibull:shape=0.7,scale=1,mtbf=1",  # both
            "weibull:shape=0.7,mtbf=5e3,bogus=1",  # unknown key
            "exp:",
            "exp:rate=1e-4,mtbf=1e4",
            "gamma:mtbf=5e3",  # missing shape
            "trace:",
            "trace:file=x,times=1;2",
            "weibull:shape=abc,mtbf=5e3",
            "weibull:shape",  # no '='
            "exp:rate=1e-4,failstop=2",  # fraction out of range
        ],
    )
    def test_bad_specs_raise_typed(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_error_model(bad)

    def test_kinds_registry(self):
        kinds = error_model_kinds()
        assert set(kinds) == {"exp", "weibull", "gamma", "trace"}

    def test_as_error_model_coercions(self):
        assert as_error_model(None) is None
        m = parse_error_model("gamma:shape=2,mtbf=5e3")
        assert as_error_model(m) is m
        assert as_error_model("gamma:shape=2,mtbf=5e3") == m
        assert as_error_model(m.process) == m
        legacy = CombinedErrors(1e-4, 0.5)
        assert as_error_model(legacy).to_combined() == legacy
        with pytest.raises(InvalidParameterError):
            as_error_model(3.14)  # type: ignore[arg-type]

    def test_require_memoryless_converts_and_passes(self):
        legacy = CombinedErrors(1e-4, 0.5)
        assert require_memoryless(legacy, "here") is legacy
        assert require_memoryless(None, "here") is None
        assert require_memoryless(as_error_model(legacy), "here") == legacy
        with pytest.raises(UnsupportedErrorModelError):
            require_memoryless(parse_error_model("gamma:shape=2,mtbf=5e3"), "here")


class TestEvaluatorIntegration:
    """The schedule evaluator and vectorised kernel dispatch through models."""

    @pytest.fixture
    def models(self):
        return [
            parse_error_model("weibull:shape=0.7,mtbf=2000,failstop=0.2"),
            parse_error_model("gamma:shape=2,mtbf=2000"),
            parse_error_model("trace:times=300;900;4e3;1.2e4;2.5e4,failstop=0.5"),
        ]

    def test_evaluator_matches_brute_force_series(self, hera_xscale, models):
        from repro.schedules import evaluate_schedule, parse_schedule

        sched = parse_schedule("esc:0.4,0.6,0.8")
        cfg = hera_xscale
        V, R, C = cfg.verification_time, cfg.recovery_time, cfg.checkpoint_time
        pm = cfg.power
        p_io = pm.io_total_power()
        w = 3000.0
        for model in models:
            ex = evaluate_schedule(cfg, sched, w, errors=model)
            head, tail = sched.normalized()
            t = C
            e = C * p_io
            reach = 1.0
            for s in list(head) + [tail] * 4000:
                p = model.attempt_failure_probability(w, s, V)
                m = model.attempt_exposure(w, s, V)
                t += reach * (m + p * R)
                e += reach * (m * pm.compute_power(s) + p * R * p_io)
                reach *= p
            assert ex.time == pytest.approx(t, rel=1e-12)
            assert ex.energy == pytest.approx(e, rel=1e-12)

    def test_mixed_grid_matches_scalar_evaluator(self, hera_xscale, models):
        from repro.schedules import evaluate_schedule, parse_schedule
        from repro.schedules.vectorized import ScheduleGrid

        schedules = [
            parse_schedule("esc:0.4,0.6,0.8"),
            parse_schedule("geom:0.4,1.5,1"),
            parse_schedule("two:0.4,0.8"),
        ]
        errors = [None, CombinedErrors(5e-4, 0.25), *models]
        points = [
            (hera_xscale, sched, err) for sched in schedules for err in errors
        ]
        grid = ScheduleGrid.from_points(points)
        w = np.geomspace(100.0, 3e4, 9)
        res = grid.evaluate(w)
        for i, (cfg, sched, err) in enumerate(points):
            scalar = evaluate_schedule(cfg, sched, w, errors=err)
            np.testing.assert_allclose(res.time[i], scalar.time, rtol=1e-12)
            np.testing.assert_allclose(res.energy[i], scalar.energy, rtol=1e-12)
            np.testing.assert_allclose(res.attempts[i], scalar.attempts, rtol=1e-12)

    def test_exponential_rows_batch_independent(self, hera_xscale, models):
        """Exponential rows must be bit-identical whether or not renewal
        models share the batch (the byte-identity acceptance pin)."""
        from repro.schedules import parse_schedule
        from repro.schedules.vectorized import ScheduleGrid

        sched = parse_schedule("esc:0.4,0.6,0.8")
        exp_points = [
            (hera_xscale, sched, None),
            (hera_xscale, sched, CombinedErrors(5e-4, 0.25)),
            (hera_xscale, sched, as_error_model(CombinedErrors(1e-4, 0.5))),
        ]
        w = np.geomspace(100.0, 3e4, 9)
        pure = ScheduleGrid.from_points(exp_points).evaluate(w)
        mixed = ScheduleGrid.from_points(
            exp_points + [(hera_xscale, sched, m) for m in models]
        ).evaluate(w)
        assert np.array_equal(mixed.time[:3], pure.time)
        assert np.array_equal(mixed.energy[:3], pure.energy)

    def test_grid_solver_matches_scalar_solver(self, hera_xscale, models):
        from repro.schedules import parse_schedule
        from repro.schedules.solver import solve_schedule
        from repro.schedules.vectorized import solve_schedule_batch

        sched = parse_schedule("geom:0.4,1.5,1")
        sol = solve_schedule_batch(
            hera_xscale, [sched] * len(models), 6.0, errors=models
        )
        for pos, model in enumerate(models):
            scalar = solve_schedule(hera_xscale, sched, 6.0, errors=model)
            assert sol.feasible[pos]
            if model.process.kind == "trace":
                # A step-function ECDF makes the overheads piecewise and
                # the energy objective multi-modal: optimiser *placement*
                # may legitimately differ between backends.  The batched
                # coarse-scan must do at least as well as the scalar
                # local search (see docs/errors.md).
                assert sol.energy_overhead[pos] <= scalar.energy_overhead * (
                    1 + 1e-9
                )
            else:
                # Smooth families: both solvers land on the same optimum.
                assert sol.energy_overhead[pos] == pytest.approx(
                    scalar.energy_overhead, rel=1e-10
                )

    def test_simulator_agrees_for_renewal_models(self, hera_xscale, models):
        from repro.schedules import parse_schedule
        from repro.simulation import check_agreement

        sched = parse_schedule("esc:0.4,0.6,0.8")
        for seed, model in enumerate(models):
            report = check_agreement(
                hera_xscale,
                work=1500.0,
                schedule=sched,
                errors=model,
                n=12_000,
                rng=6100 + seed,
            )
            assert report.agrees(), (
                f"{model.spec()}: z_time={report.time_zscore:.2f} "
                f"z_energy={report.energy_zscore:.2f}"
            )


class TestSimulatorBoundaryAndApplication:
    def test_trace_atom_on_window_boundary_counts_as_failure(self, toy_config):
        """A trace atom exactly at the attempt window must fail on both
        sides: the ECDF is P(X <= t), and the simulator's window test
        matches it (regression for the < vs <= boundary)."""
        import numpy as np

        from repro.simulation.engine import PatternSimulator

        cfg = toy_config  # V=5, speeds (0.5, 1.0)
        # tau = (W + V) / sigma = (995 + 5) / 1.0 = 1000 == the atom.
        model = ErrorModel(
            process=TraceArrivals(times=(1000.0, 50_000.0)), failstop_fraction=1.0
        )
        assert model.process.failure_probability(1000.0) == 0.5
        sim = PatternSimulator(cfg, errors=model, rng=321)
        batch = sim.run(work=995.0, sigma1=1.0, sigma2=1.0, n=4000)
        # Every attempt fails iff the 1000 s atom is drawn: rate 1/2.
        frac_failed = np.mean(batch.attempts > 1)
        assert frac_failed == pytest.approx(0.5, abs=0.03)

    def test_zero_variance_zscore_rule_of_three(self):
        """sem ~ 0: deviations explainable by unobserved failures
        (<= 30/n relative) report z = 0; larger ones fail loudly."""
        import math

        from repro.simulation.outcomes import BatchSummary

        summary = BatchSummary(
            n=1000, mean_time=100.0, sem_time=0.0,
            mean_energy=1e6, sem_energy=0.0,
            mean_attempts=1.0, mean_reexecutions=0.0,
            total_failstop=0, total_silent=0,
        )
        # Within 30/n = 3% relative: no evidence against the model.
        assert summary.time_zscore(100.0 * 1.02) == 0.0
        # A genuinely wrong expectation (10% off) must not be masked.
        assert summary.time_zscore(100.0 * 1.10) == -math.inf
        assert summary.energy_zscore(1e6 * 0.85) == math.inf

    def test_memoryless_models_stay_error_models(self, hera_xscale):
        """Lifting is the only conversion below the API: a memoryless
        model is an ErrorModel from the lift on, never a CombinedErrors."""
        from repro.simulation import PatternSimulator

        legacy = CombinedErrors(1e-4, 0.5)
        assert as_error_model(None) is None
        lifted = as_error_model(legacy)
        assert isinstance(lifted, ErrorModel) and lifted.is_memoryless
        assert as_error_model(lifted) is lifted
        assert PatternSimulator(hera_xscale, lifted).errors is lifted
        wb = parse_error_model("weibull:shape=0.7,mtbf=5e3")
        assert as_error_model(wb) is wb and not wb.is_memoryless

    def test_zero_failure_batch_reports_z_zero(self, hera_xscale):
        """A batch that observes no failures has zero sample variance;
        check_agreement must report z = 0 (no evidence against the
        model), not crash with ZeroDivisionError (regression for the
        validate --errors path at realistic HPC MTBFs)."""
        from repro.simulation import check_agreement

        model = parse_error_model("gamma:shape=2,mtbf=1e9")
        report = check_agreement(
            hera_xscale, work=500.0, sigma1=0.8, errors=model, n=500, rng=3
        )
        assert report.summary.total_failstop == 0
        assert report.summary.total_silent == 0
        assert report.time_zscore == 0.0
        assert report.energy_zscore == 0.0
        assert report.agrees()

    def test_application_simulator_renewal_model(self, toy_config):
        from repro.simulation.application import ApplicationSimulator

        model = parse_error_model("weibull:shape=0.7,mtbf=2000,failstop=0.5")
        sim = ApplicationSimulator(toy_config, errors=model, rng=11)
        res = sim.run(total_work=4000.0, work=1000.0, sigma1=0.5, sigma2=1.0)
        assert res.num_patterns == 4
        assert res.total_time > 0 and res.total_energy > 0
        # The high rate makes errors all but certain across 4 patterns.
        assert res.num_errors > 0

    def test_application_simulator_memoryless_model_matches_legacy(self, toy_config):
        """A CombinedErrors split and the equivalent exp: model are one
        model to the simulator: same seed, bit-identical trace."""
        from repro.simulation.application import ApplicationSimulator

        legacy = CombinedErrors(1e-3, 0.5)
        a = ApplicationSimulator(toy_config, errors=legacy, rng=9).run(
            total_work=4000.0, work=1000.0, sigma1=0.5
        )
        b = ApplicationSimulator(toy_config, errors="exp:rate=1e-3,failstop=0.5", rng=9).run(
            total_work=4000.0, work=1000.0, sigma1=0.5
        )
        assert a.total_time == b.total_time
        assert a.total_energy == b.total_energy
        assert a.events == b.events


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            "exp:rate=0.0001",
            "exp:mtbf=1e4,failstop=0.5",
            "weibull:shape=0.7,mtbf=5e3,failstop=0.2",
            "gamma:shape=2,mtbf=5e3",
            "trace:times=100;200;5e3,failstop=0.3",
        ],
    )
    def test_spec_and_dict_round_trips(self, spec):
        model = parse_error_model(spec)
        assert parse_error_model(model.spec()) == model
        assert error_model_from_dict(model.to_dict()) == model
        assert hash(parse_error_model(model.spec())) == hash(model)

    def test_dict_payload_is_json_clean(self):
        import json

        model = parse_error_model("trace:times=100;200;5e3,failstop=0.3")
        payload = json.loads(json.dumps(model.to_dict()))
        assert error_model_from_dict(payload) == model

    def test_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            error_model_from_dict({"schema": "nope"})

    def test_describe_is_spec(self):
        model = parse_error_model("gamma:shape=2,mtbf=5e3")
        assert model.describe() == model.spec()
        assert model.process.describe() == model.process.spec()
