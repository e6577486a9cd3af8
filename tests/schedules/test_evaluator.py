"""The general evaluator against the paper's closed forms + tail bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import exact as silent_exact
from repro.errors import CombinedErrors, as_error_model
from repro.failstop import exact as combined_exact
from repro.schedules import (
    Constant,
    Escalating,
    Geometric,
    TwoSpeed,
    evaluate_schedule,
    expected_energy_schedule,
    expected_reexecutions_schedule,
    expected_time_schedule,
)

WORKS = (50.0, 500.0, 2764.0, 20000.0)
PAIRS = ((0.4, 0.4), (0.4, 0.6), (0.6, 0.4), (1.0, 0.15))

RTOL = 1e-12


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("s1,s2", PAIRS)
    @pytest.mark.parametrize("w", WORKS)
    def test_two_speed_matches_prop2_prop3(self, hera_xscale, s1, s2, w):
        sched = TwoSpeed(s1, s2)
        assert expected_time_schedule(hera_xscale, sched, w) == pytest.approx(
            silent_exact.expected_time(hera_xscale, w, s1, s2), rel=RTOL
        )
        assert expected_energy_schedule(hera_xscale, sched, w) == pytest.approx(
            silent_exact.expected_energy(hera_xscale, w, s1, s2), rel=RTOL
        )
        assert expected_reexecutions_schedule(hera_xscale, sched, w) == pytest.approx(
            silent_exact.expected_reexecutions(hera_xscale, w, s1, s2), abs=1e-12
        )

    @pytest.mark.parametrize("w", WORKS)
    def test_constant_matches_prop1(self, hera_xscale, w):
        assert expected_time_schedule(hera_xscale, Constant(0.4), w) == pytest.approx(
            silent_exact.expected_time_single_speed(hera_xscale, w, 0.4), rel=RTOL
        )

    @pytest.mark.parametrize("s1,s2", PAIRS)
    @pytest.mark.parametrize("f", (0.25, 0.5, 1.0))
    def test_two_speed_matches_combined_closed_forms(self, toy_config, s1, s2, f):
        errors = CombinedErrors(toy_config.lam, f)
        sched = TwoSpeed(s1, s2)
        w = 800.0
        assert expected_time_schedule(
            toy_config, sched, w, errors=errors
        ) == pytest.approx(
            combined_exact.expected_time(toy_config, errors, w, s1, s2), rel=RTOL
        )
        assert expected_energy_schedule(
            toy_config, sched, w, errors=errors
        ) == pytest.approx(
            combined_exact.expected_energy(toy_config, errors, w, s1, s2), rel=RTOL
        )

    def test_failstop_exact_schedule_wrappers_delegate(self, toy_config):
        errors = CombinedErrors(toy_config.lam, 0.5)
        sched = Escalating((0.5, 1.0))
        w = 600.0
        assert combined_exact.expected_time_schedule(
            toy_config, errors, sched, w
        ) == pytest.approx(
            expected_time_schedule(toy_config, sched, w, errors=errors), rel=RTOL
        )
        assert combined_exact.expected_energy_schedule(
            toy_config, errors, sched, w
        ) == pytest.approx(
            expected_energy_schedule(toy_config, sched, w, errors=errors), rel=RTOL
        )

    def test_core_exact_schedule_wrappers_delegate(self, hera_xscale):
        sched = Geometric(0.4, 1.5, sigma_max=1.0)
        w = 2764.0
        assert silent_exact.expected_time_schedule(
            hera_xscale, sched, w
        ) == pytest.approx(expected_time_schedule(hera_xscale, sched, w), rel=RTOL)
        assert silent_exact.expected_energy_schedule(
            hera_xscale, sched, w
        ) == pytest.approx(expected_energy_schedule(hera_xscale, sched, w), rel=RTOL)


class TestGeneralSchedules:
    def test_escalating_hand_computed(self, hera_xscale):
        """Three explicit attempts + geometric tail, built by hand."""
        cfg = hera_xscale
        w = 2000.0
        speeds = (0.4, 0.6, 0.8)
        sched = Escalating(speeds)
        lam = cfg.lam
        V = cfg.verification_time
        R = cfg.recovery_time

        def p(s):
            return -np.expm1(-lam * w / s)

        t = cfg.checkpoint_time
        reach = 1.0
        for s in speeds[:-1]:
            t += reach * ((w + V) / s + p(s) * R)
            reach *= p(s)
        p_t = p(speeds[-1])
        t += reach / (1.0 - p_t) * ((w + V) / speeds[-1] + p_t * R)

        assert expected_time_schedule(cfg, sched, w) == pytest.approx(t, rel=1e-12)

    def test_broadcasts_over_work(self, hera_xscale):
        sched = Geometric(0.4, 1.5, sigma_max=1.0)
        works = np.array(WORKS)
        vec = expected_time_schedule(hera_xscale, sched, works)
        scal = [expected_time_schedule(hera_xscale, sched, w) for w in WORKS]
        np.testing.assert_allclose(vec, scal, rtol=1e-15)

    def test_work_must_be_positive(self, hera_xscale):
        with pytest.raises(ValueError):
            expected_time_schedule(hera_xscale, Constant(0.4), 0.0)

    def test_faster_tail_reduces_reexecution_cost_share(self, hera_xscale):
        """A schedule that escalates pays less per re-execution round."""
        w = 2764.0
        slow = evaluate_schedule(hera_xscale, Constant(0.4), w)
        fast_tail = evaluate_schedule(hera_xscale, TwoSpeed(0.4, 1.0), w)
        # Same first attempt; faster re-executions -> fewer expected
        # re-executions (shorter exposure window) and less time.
        assert fast_tail.reexecutions < slow.reexecutions
        assert fast_tail.time < slow.time


class TestComponentSelection:
    """The solver's hot loops request one overhead at a time."""

    def test_partial_evaluation_matches_full(self, hera_xscale):
        sched = Geometric(0.4, 1.5, sigma_max=1.0)
        w = 2764.0
        full = evaluate_schedule(hera_xscale, sched, w)
        t_only = evaluate_schedule(hera_xscale, sched, w, components=("time",))
        e_only = evaluate_schedule(hera_xscale, sched, w, components=("energy",))
        assert t_only.time == full.time and t_only.energy is None
        assert e_only.energy == full.energy and e_only.time is None
        assert t_only.attempts == full.attempts == e_only.attempts

    def test_attempts_only(self, hera_xscale):
        ex = evaluate_schedule(
            hera_xscale, Constant(0.4), 2764.0, components=()
        )
        assert ex.time is None and ex.energy is None
        assert ex.reexecutions > 0


class TestTruncation:
    def test_truncated_value_plus_remainder_equals_exact(self, hera_xscale):
        sched = Geometric(0.4, 1.5, sigma_max=1.0)
        w = 2764.0
        exact = evaluate_schedule(hera_xscale, sched, w)
        assert not exact.truncated
        assert exact.tail_bound_time == 0.0
        for n in (3, 4, 6, 10):
            trunc = evaluate_schedule(hera_xscale, sched, w, max_attempts=n)
            assert trunc.truncated
            assert trunc.time + trunc.tail_bound_time == pytest.approx(
                exact.time, rel=1e-12
            )
            assert trunc.energy + trunc.tail_bound_energy == pytest.approx(
                exact.energy, rel=1e-12
            )

    def test_bound_decays_geometrically(self, hera_xscale):
        sched = TwoSpeed(0.4, 0.6)
        w = 2764.0
        bounds = [
            evaluate_schedule(hera_xscale, sched, w, max_attempts=n).tail_bound_time
            for n in (2, 4, 6, 8)
        ]
        # Each extra pair of tail attempts shrinks the remainder by p_t^2.
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        assert all(r < 1e-3 for r in ratios)
        assert all(b > 0 for b in bounds)

    def test_truncation_must_cover_head(self, hera_xscale):
        sched = Escalating((0.4, 0.6, 0.8, 1.0))
        with pytest.raises(ValueError):
            evaluate_schedule(hera_xscale, sched, 100.0, max_attempts=2)

    def test_divergent_tail_is_inf_not_nan(self, hera_xscale):
        """When re-executions numerically never succeed (p_t -> 1) the
        expectation diverges; both the exact and the truncated path must
        report inf, never NaN."""
        cfg = hera_xscale.with_error_rate(1.0)
        sched = Geometric(0.4, 1.5, sigma_max=1.0)
        exact = evaluate_schedule(cfg, sched, 1e6)
        trunc = evaluate_schedule(cfg, sched, 1e6, max_attempts=10)
        for val in (exact.time, exact.energy, trunc.time, trunc.energy,
                    trunc.tail_bound_time, trunc.tail_bound_energy):
            assert np.isinf(val) and val > 0


class TestPerAttemptPrimitives:
    """The per-attempt primitives the evaluator chains over, on a
    CombinedErrors split lifted to its ErrorModel."""

    def test_failure_probability_matches_survival(self):
        split = CombinedErrors(1e-3, 0.5)
        err = as_error_model(split)
        w, s, V = 500.0, 0.5, 5.0
        tau = (w + V) / s
        omega = w / s
        q = np.exp(-(split.failstop_rate * tau + split.silent_rate * omega))
        assert err.attempt_failure_probability(w, s, V) == pytest.approx(1 - q)

    def test_exposure_caps_at_tau(self):
        err = as_error_model(CombinedErrors(1e-3, 1.0))
        w, s, V = 500.0, 0.5, 5.0
        tau = (w + V) / s
        m = err.attempt_exposure(w, s, V)
        assert 0 < m < tau

    def test_exposure_without_failstop_is_full_window(self):
        err = as_error_model(CombinedErrors(1e-3, 0.0))
        w, s, V = 500.0, 0.5, 5.0
        assert err.attempt_exposure(w, s, V) == pytest.approx((w + V) / s)


class TestTypedTruncationErrors:
    """Regression (PR 3): invalid truncation bounds raise the typed
    InvalidTruncationError from repro.exceptions, not a bare ValueError."""

    def test_budget_below_head_raises_typed_error(self, hera_xscale):
        from repro.exceptions import InvalidTruncationError, ReproError

        sched = Escalating((0.4, 0.6, 0.8, 1.0))
        with pytest.raises(InvalidTruncationError) as exc:
            evaluate_schedule(hera_xscale, sched, 100.0, max_attempts=2)
        assert exc.value.max_attempts == 2
        # The canonical head is (0.4, 0.6, 0.8): the trailing entry
        # equal to the tail speed is normalised away.
        assert exc.value.head_len == 3
        # Catchable both as a library error and as the legacy ValueError.
        assert isinstance(exc.value, ReproError)
        assert isinstance(exc.value, ValueError)

    def test_budget_below_one_raises_typed_error(self, hera_xscale):
        from repro.exceptions import InvalidTruncationError

        # max_attempts=0 would truncate away the first attempt entirely
        # and make ScheduleExpectation.reexecutions (= attempts - 1)
        # negative; it must be rejected up front.
        with pytest.raises(InvalidTruncationError):
            evaluate_schedule(hera_xscale, Constant(0.4), 100.0, max_attempts=0)

    def test_reexecutions_wrapper_propagates_typed_error(self, hera_xscale):
        from repro.exceptions import InvalidTruncationError

        sched = Escalating((0.4, 0.6, 0.8))
        with pytest.raises(InvalidTruncationError):
            expected_reexecutions_schedule(
                hera_xscale, sched, 100.0, max_attempts=1
            )
        # A valid budget keeps the truncated count non-negative.
        r = expected_reexecutions_schedule(hera_xscale, sched, 100.0, max_attempts=3)
        assert r >= 0.0

    def test_batched_evaluator_raises_same_typed_error(self, hera_xscale):
        from repro.exceptions import InvalidTruncationError
        from repro.schedules import evaluate_schedule_batch

        with pytest.raises(InvalidTruncationError):
            evaluate_schedule_batch(
                hera_xscale,
                [Escalating((0.4, 0.6, 0.8)), Constant(0.5)],
                100.0,
                max_attempts=1,  # below the batch's longest head (2)
            )

    def test_work_validation_is_a_library_error(self, hera_xscale):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            evaluate_schedule(hera_xscale, Constant(0.4), -1.0)
