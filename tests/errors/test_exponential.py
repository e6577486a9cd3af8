"""Unit tests for the exponential arrival family (the paper's Poisson
errors) and its capped-exposure helper."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ExponentialArrivals
from repro.errors.models import ArrivalProcess
from repro.exceptions import InvalidParameterError


class TestConstruction:
    def test_rate_stored(self):
        assert ExponentialArrivals(rate=1e-4).rate == 1e-4

    def test_mtbf_is_inverse_rate(self):
        assert ExponentialArrivals(rate=2e-5).mtbf == pytest.approx(5e4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_rate_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            ExponentialArrivals(rate=bad)

    def test_frozen(self):
        errs = ExponentialArrivals(rate=1e-4)
        with pytest.raises(AttributeError):
            errs.rate = 2e-4  # type: ignore[misc]


class TestFailureProbability:
    def test_zero_exposure_is_zero(self):
        assert ExponentialArrivals(1e-4).failure_probability(0.0) == 0.0

    def test_matches_closed_form(self):
        errs = ExponentialArrivals(3e-4)
        t = 123.0
        assert errs.failure_probability(t) == pytest.approx(1 - math.exp(-3e-4 * t))

    def test_monotone_in_exposure(self):
        errs = ExponentialArrivals(1e-3)
        t = np.linspace(0, 1e4, 64)
        p = errs.failure_probability(t)
        assert np.all(np.diff(p) > 0)

    def test_bounded_by_one(self):
        errs = ExponentialArrivals(1.0)
        assert errs.failure_probability(1e9) <= 1.0

    def test_array_shape_preserved(self):
        errs = ExponentialArrivals(1e-4)
        t = np.ones((3, 4))
        assert errs.failure_probability(t).shape == (3, 4)

    def test_scalar_returns_float(self):
        out = ExponentialArrivals(1e-4).failure_probability(10.0)
        assert isinstance(out, float)

    def test_negative_exposure_rejected(self):
        with pytest.raises(ValueError):
            ExponentialArrivals(1e-4).failure_probability(-1.0)

    def test_complement_of_survival(self):
        errs = ExponentialArrivals(5e-5)
        t = np.linspace(1, 1e5, 11)
        np.testing.assert_allclose(
            errs.failure_probability(t) + errs.survival_probability(t), 1.0
        )

    def test_tiny_rate_numerically_stable(self):
        # expm1 keeps precision where 1 - exp(-x) would cancel.
        errs = ExponentialArrivals(1e-15)
        p = errs.failure_probability(1.0)
        assert p == pytest.approx(1e-15, rel=1e-6)


class TestExpectedTimeLost:
    def test_half_window_limit_for_small_rate(self):
        # lambda*tau -> 0: an error strikes on average at half the window.
        errs = ExponentialArrivals(1e-9)
        tau = 100.0
        assert errs.expected_time_lost(tau) == pytest.approx(tau / 2, rel=1e-5)

    def test_closed_form(self):
        lam = 1e-3
        errs = ExponentialArrivals(lam)
        w, s = 500.0, 0.5
        tau = w / s
        expected = 1 / lam - tau / (math.exp(lam * tau) - 1)
        assert errs.expected_time_lost(w / s) == pytest.approx(expected, rel=1e-12)

    def test_below_half_window(self):
        # Conditional mean of a truncated exponential is < tau/2 for lam>0.
        errs = ExponentialArrivals(1e-2)
        assert errs.expected_time_lost(1000.0) < 500.0

    def test_bounded_by_mtbf(self):
        errs = ExponentialArrivals(1e-3)
        assert errs.expected_time_lost(1e9) <= errs.mtbf

    def test_matches_the_renewal_derivation(self):
        # The closed form is the generic E[X | X < t] of the primitives.
        errs = ExponentialArrivals(1e-4)
        t = np.array([10.0, 200.0, 5e3, 1e5])
        np.testing.assert_allclose(
            errs.expected_time_lost(t),
            ArrivalProcess.expected_time_lost(errs, t),
            rtol=1e-9,
        )

    def test_array_shape_and_scalar_float(self):
        errs = ExponentialArrivals(1e-4)
        assert errs.expected_time_lost(np.ones((2, 3))).shape == (2, 3)
        assert isinstance(errs.expected_time_lost(10.0), float)

    def test_series_fallback_continuous(self):
        # Just above the 1e-8 switch the exact branch is used; it must
        # agree with the series value tau/2 * (1 - x/6) at the same point.
        lam = 1e-10
        errs = ExponentialArrivals(lam)
        x = 2e-8
        tau = x / lam
        exact_branch = errs.expected_time_lost(tau)
        series = tau / 2 * (1 - x / 6)
        assert exact_branch == pytest.approx(series, rel=1e-5)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ExponentialArrivals(1e-4).expected_time_lost(-1.0)


class TestSampling:
    def test_arrival_mean(self, rng):
        errs = ExponentialArrivals(1e-2)
        x = errs.sample_interarrivals(rng, 200_000)
        assert np.mean(x) == pytest.approx(errs.mtbf, rel=0.02)

    def test_strike_frequency(self, rng):
        errs = ExponentialArrivals(1e-3)
        hits = errs.sample_interarrivals(rng, 200_000) <= 693.0
        assert np.mean(hits) == pytest.approx(errs.failure_probability(693.0), abs=0.005)

    def test_thinned(self):
        errs = ExponentialArrivals(1e-4).thinned(3.0)
        assert errs.rate == pytest.approx(3e-4)

    def test_thinned_invalid(self):
        with pytest.raises(InvalidParameterError):
            ExponentialArrivals(1e-4).thinned(0.0)


class TestCappedExposure:
    """The shared E[min(Tf, tau)] helper behind the Section-5 closed
    forms and the exponential family's capped exposure."""

    def test_zero_rate_pays_full_window(self):
        from repro.errors.exponential import capped_exposure

        assert capped_exposure(0.0, 123.4) == 123.4

    def test_matches_direct_form_for_normal_rates(self):
        import numpy as np

        from repro.errors.exponential import capped_exposure

        rate, tau = 1e-3, 500.0
        expected = -np.expm1(-rate * tau) / rate
        assert capped_exposure(rate, tau) == expected

    def test_denormal_rate_regression(self):
        """Denormal rate * tau used to divide away its mantissa bits
        (hypothesis falsified the Eq.-8 recursion identity at
        f ~ 2e-311); the series fallback must return the full window
        to machine precision."""
        from repro.errors.exponential import capped_exposure

        tau = 355.2263424645352
        rate = 2.225073858507e-311 * 0.00039592660926547694  # denormal lf
        m = capped_exposure(rate, tau)
        assert m == tau  # correction term underflows: exactly the window

    def test_negative_rate_rejected(self):
        import pytest

        from repro.errors.exponential import capped_exposure

        with pytest.raises(ValueError):
            capped_exposure(-1.0, 1.0)
