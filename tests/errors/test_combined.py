"""Unit tests for the combined fail-stop/silent error model."""

from __future__ import annotations

import pytest

from repro.errors import CombinedErrors, as_error_model
from repro.exceptions import InvalidParameterError


class TestSplit:
    def test_rates_sum_to_total(self):
        m = CombinedErrors(total_rate=1e-3, failstop_fraction=0.3)
        assert m.failstop_rate + m.silent_rate == pytest.approx(1e-3)

    def test_fractions_complementary(self):
        m = CombinedErrors(1e-3, 0.3)
        assert m.silent_fraction == pytest.approx(0.7)

    @pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_fraction_range_accepted(self, f):
        m = CombinedErrors(1e-4, f)
        assert m.failstop_rate == pytest.approx(f * 1e-4)

    @pytest.mark.parametrize("f", [-0.1, 1.1, float("nan")])
    def test_fraction_out_of_range_rejected(self, f):
        with pytest.raises(InvalidParameterError):
            CombinedErrors(1e-4, f)

    @pytest.mark.parametrize("lam", [0.0, -1e-4])
    def test_total_rate_must_be_positive(self, lam):
        with pytest.raises(InvalidParameterError):
            CombinedErrors(lam, 0.5)


class TestProcesses:
    """The per-source processes of a split live on its lifted model."""

    def test_failstop_arrivals_rate(self):
        m = as_error_model(CombinedErrors(2e-3, 0.25))
        assert m.failstop_arrivals.rate == pytest.approx(5e-4)

    def test_silent_arrivals_rate(self):
        m = as_error_model(CombinedErrors(2e-3, 0.25))
        assert m.silent_arrivals.rate == pytest.approx(1.5e-3)

    def test_no_failstop_arrivals_without_failstop_errors(self):
        assert as_error_model(CombinedErrors(1e-3, 0.0)).failstop_arrivals is None

    def test_no_silent_arrivals_without_silent_errors(self):
        assert as_error_model(CombinedErrors(1e-3, 1.0)).silent_arrivals is None


class TestDerived:
    def test_silent_only_preserves_rate(self):
        m = CombinedErrors(1e-3, 0.7).silent_only()
        assert m.total_rate == 1e-3
        assert m.failstop_fraction == 0.0

    def test_failstop_only(self):
        m = CombinedErrors(1e-3, 0.1).failstop_only()
        assert m.failstop_fraction == 1.0

    def test_with_total_rate(self):
        m = CombinedErrors(1e-3, 0.4).with_total_rate(2e-3)
        assert m.total_rate == 2e-3
        assert m.failstop_fraction == 0.4


class TestValidityWindow:
    def test_silent_only_is_unbounded(self):
        lo, hi = CombinedErrors(1e-4, 0.0).speed_ratio_validity_window()
        assert lo == 0.0 and hi == float("inf")

    def test_failstop_only_window(self):
        # f=1, s=0: window is (1/sqrt(2), 2).
        lo, hi = CombinedErrors(1e-4, 1.0).speed_ratio_validity_window()
        assert hi == pytest.approx(2.0)
        assert lo == pytest.approx(2.0**-0.5)

    def test_window_consistency(self):
        # lo = hi**-1/2 for every split (paper Section 5.2).
        for f in (0.2, 0.5, 0.9):
            lo, hi = CombinedErrors(1e-4, f).speed_ratio_validity_window()
            assert lo == pytest.approx(hi**-0.5)

    def test_window_widens_with_silent_fraction(self):
        hi_mostly_failstop = CombinedErrors(1e-4, 0.9).speed_ratio_validity_window()[1]
        hi_mostly_silent = CombinedErrors(1e-4, 0.1).speed_ratio_validity_window()[1]
        assert hi_mostly_silent > hi_mostly_failstop
