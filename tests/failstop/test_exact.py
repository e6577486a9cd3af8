"""Unit tests for the combined-error exact expectations (Section 5.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import exact as silent_exact
from repro.errors import CombinedErrors, ExponentialArrivals
from repro.failstop import exact as combined_exact


class TestReductionToSilentOnly:
    def test_time_matches_prop2_when_f_zero(self, any_config):
        cfg = any_config
        errors = CombinedErrors(cfg.lam, 0.0)
        for w in (500.0, 2764.0, 20000.0):
            assert combined_exact.expected_time(cfg, errors, w, 0.4, 0.8) == pytest.approx(
                silent_exact.expected_time(cfg, w, 0.4, 0.8), rel=1e-12
            )

    def test_energy_matches_prop3_when_f_zero(self, any_config):
        cfg = any_config
        errors = CombinedErrors(cfg.lam, 0.0)
        assert combined_exact.expected_energy(cfg, errors, 2764.0, 0.4, 0.8) == pytest.approx(
            silent_exact.expected_energy(cfg, 2764.0, 0.4, 0.8), rel=1e-12
        )


class TestRecursionIdentity:
    """The closed form must satisfy the paper's recursion (Eq. 8) exactly."""

    @pytest.mark.parametrize("f", [0.25, 0.5, 1.0])
    def test_time_recursion(self, toy_config, f):
        cfg = toy_config
        errors = CombinedErrors(5e-4, f)
        w, s1, s2 = 400.0, 0.5, 1.0
        lf, ls = errors.failstop_rate, errors.silent_rate
        V, R, C = cfg.verification_time, cfg.recovery_time, cfg.checkpoint_time

        tau1 = (w + V) / s1
        pf1 = 1 - math.exp(-lf * tau1)
        ps1 = 1 - math.exp(-ls * w / s1)
        if lf > 0:
            tlost = ExponentialArrivals(lf).expected_time_lost((w + V) / s1)
        else:
            tlost = 0.0

        t = combined_exact.expected_time(cfg, errors, w, s1, s2)
        t22 = combined_exact.expected_time(cfg, errors, w, s2, s2)
        rhs = pf1 * (tlost + R + t22) + (1 - pf1) * (
            tau1 + ps1 * (R + t22) + (1 - ps1) * C
        )
        assert t == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("f", [0.25, 0.5, 1.0])
    def test_energy_recursion(self, toy_config, f):
        cfg = toy_config
        errors = CombinedErrors(5e-4, f)
        w, s1, s2 = 400.0, 0.5, 1.0
        lf, ls = errors.failstop_rate, errors.silent_rate
        V, R, C = cfg.verification_time, cfg.recovery_time, cfg.checkpoint_time
        pm = cfg.power
        p_io = pm.io_total_power()
        p1 = pm.compute_power(s1)

        tau1 = (w + V) / s1
        pf1 = 1 - math.exp(-lf * tau1)
        ps1 = 1 - math.exp(-ls * w / s1)
        tlost = ExponentialArrivals(lf).expected_time_lost((w + V) / s1) if lf > 0 else 0.0

        e = combined_exact.expected_energy(cfg, errors, w, s1, s2)
        e22 = combined_exact.expected_energy(cfg, errors, w, s2, s2)
        rhs = pf1 * (tlost * p1 + R * p_io + e22) + (1 - pf1) * (
            tau1 * p1 + ps1 * (R * p_io + e22) + (1 - ps1) * C * p_io
        )
        assert e == pytest.approx(rhs, rel=1e-12)


class TestBehaviour:
    def test_failstop_cheaper_than_silent_in_time(self, toy_config):
        # Same total rate: fail-stop detects early (loses ~half a window)
        # while silent always loses the full window, so pure-fail-stop
        # time is below pure-silent time.
        cfg = toy_config
        w = 500.0
        t_fs = combined_exact.expected_time(cfg, CombinedErrors(1e-3, 1.0), w, 0.5, 0.5)
        t_si = combined_exact.expected_time(cfg, CombinedErrors(1e-3, 0.0), w, 0.5, 0.5)
        assert t_fs < t_si

    def test_time_monotone_in_failstop_fraction(self, toy_config):
        cfg = toy_config
        w = 500.0
        times = [
            combined_exact.expected_time(cfg, CombinedErrors(1e-3, f), w, 0.5, 1.0)
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert times == sorted(times, reverse=True)

    def test_time_monotone_in_work(self, combined_half, toy_config):
        w = np.linspace(50.0, 5000.0, 32)
        t = combined_exact.expected_time(toy_config, combined_half, w, 0.5, 1.0)
        assert np.all(np.diff(t) > 0)

    def test_overheads_are_ratios(self, toy_config, combined_half):
        w = 700.0
        assert combined_exact.time_overhead(
            toy_config, combined_half, w, 0.5, 1.0
        ) == pytest.approx(
            combined_exact.expected_time(toy_config, combined_half, w, 0.5, 1.0) / w
        )
        assert combined_exact.energy_overhead(
            toy_config, combined_half, w, 0.5, 1.0
        ) == pytest.approx(
            combined_exact.expected_energy(toy_config, combined_half, w, 0.5, 1.0) / w
        )

    def test_error_free_limit(self, hera_xscale):
        errors = CombinedErrors(1e-15, 0.5)
        w, s1 = 1000.0, 0.8
        expected = hera_xscale.checkpoint_time + (w + hera_xscale.verification_time) / s1
        assert combined_exact.expected_time(
            hera_xscale, errors, w, s1, 0.4
        ) == pytest.approx(expected, rel=1e-9)

    def test_invalid_inputs(self, hera_xscale, combined_half):
        with pytest.raises(ValueError):
            combined_exact.expected_time(hera_xscale, combined_half, 0.0, 0.4)
        with pytest.raises(ValueError):
            combined_exact.expected_time(hera_xscale, combined_half, 100.0, -0.4)


class TestPaperEq7Erratum:
    """Pin down the inconsistency between printed Eq. (7) and recursion (8)."""

    def test_difference_is_exactly_the_spurious_term(self, toy_config):
        cfg = toy_config
        errors = CombinedErrors(5e-4, 0.5)
        w, s1, s2 = 400.0, 0.5, 1.0
        ours = combined_exact.expected_time(cfg, errors, w, s1, s2)
        eq7 = combined_exact.expected_time_paper_eq7(cfg, errors, w, s1, s2)
        lf, ls = errors.failstop_rate, errors.silent_rate
        V = cfg.verification_time
        p1 = 1 - math.exp(-(lf * (w + V) + ls * w) / s1)
        spurious = p1 * math.exp(ls * w / s2) * V / s2
        assert eq7 - ours == pytest.approx(spurious, rel=1e-9)

    def test_eq7_violates_recursion(self, toy_config):
        # The printed formula does NOT satisfy recursion (8); ours does
        # (see TestRecursionIdentity).  This documents the erratum.
        cfg = toy_config
        errors = CombinedErrors(5e-4, 0.5)
        w, s1, s2 = 400.0, 0.5, 1.0
        lf, ls = errors.failstop_rate, errors.silent_rate
        V, R, C = cfg.verification_time, cfg.recovery_time, cfg.checkpoint_time
        tau1 = (w + V) / s1
        pf1 = 1 - math.exp(-lf * tau1)
        ps1 = 1 - math.exp(-ls * w / s1)
        tlost = ExponentialArrivals(lf).expected_time_lost((w + V) / s1)

        t_eq7 = combined_exact.expected_time_paper_eq7(cfg, errors, w, s1, s2)
        t22_eq7 = combined_exact.expected_time_paper_eq7(cfg, errors, w, s2, s2)
        rhs = pf1 * (tlost + R + t22_eq7) + (1 - pf1) * (
            tau1 + ps1 * (R + t22_eq7) + (1 - ps1) * C
        )
        assert abs(t_eq7 - rhs) > 1e-6

    def test_eq7_requires_failstop(self, toy_config):
        with pytest.raises(ValueError):
            combined_exact.expected_time_paper_eq7(
                toy_config, CombinedErrors(1e-4, 0.0), 100.0, 0.5
            )

    def test_eq7_reduces_to_prop7_consistent_form_without_verification(self, toy_config):
        # With V = 0 the spurious term vanishes: Eq. (7) and our closed
        # form agree exactly — which is why the paper's own Theorem 2
        # (V = 0 setting) is consistent with both.
        cfg = toy_config.with_verification_time(0.0)
        errors = CombinedErrors(5e-4, 1.0)
        w, s1, s2 = 400.0, 0.5, 1.0
        assert combined_exact.expected_time_paper_eq7(
            cfg, errors, w, s1, s2
        ) == pytest.approx(
            combined_exact.expected_time(cfg, errors, w, s1, s2), rel=1e-12
        )
