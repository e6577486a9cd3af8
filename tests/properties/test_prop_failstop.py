"""Property-based tests on the combined-error model (hypothesis)."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exact as silent_exact
from repro.errors import CombinedErrors, ExponentialArrivals
from repro.failstop import exact as combined_exact
from repro.platforms import Configuration, Platform, Processor

rates = st.floats(min_value=1e-7, max_value=1e-3)
fracs = st.floats(min_value=0.0, max_value=1.0)
works = st.floats(min_value=10.0, max_value=20000.0)
speeds = st.floats(min_value=0.1, max_value=1.0)


@st.composite
def configurations(draw) -> Configuration:
    platform = Platform(
        name="prop",
        error_rate=draw(rates),
        checkpoint_time=draw(st.floats(min_value=10.0, max_value=2000.0)),
        verification_time=draw(st.floats(min_value=0.0, max_value=300.0)),
    )
    processor = Processor(
        name="propcpu",
        speeds=(0.5, 1.0),
        kappa=draw(st.floats(min_value=100.0, max_value=8000.0)),
        idle_power=draw(st.floats(min_value=0.0, max_value=500.0)),
    )
    return Configuration(platform=platform, processor=processor)


class TestCombinedInvariants:
    @given(cfg=configurations(), lam=rates, f=fracs, w=works, s1=speeds, s2=speeds)
    @settings(max_examples=120, deadline=None)
    def test_time_positive_and_above_floor(self, cfg, lam, f, w, s1, s2):
        errors = CombinedErrors(lam, f)
        t = combined_exact.expected_time(cfg, errors, w, s1, s2)
        # With fail-stop interruptions the first attempt can be cut
        # short, but checkpoint time is always paid.
        assert t > cfg.checkpoint_time

    @given(cfg=configurations(), lam=rates, w=works, s1=speeds, s2=speeds)
    @settings(max_examples=120, deadline=None)
    def test_reduces_to_silent_at_f_zero(self, cfg, lam, w, s1, s2):
        errors = CombinedErrors(lam, 0.0)
        t_combined = combined_exact.expected_time(cfg, errors, w, s1, s2)
        t_silent = silent_exact.expected_time(cfg.with_error_rate(lam), w, s1, s2)
        assert math.isclose(t_combined, t_silent, rel_tol=1e-10)
        e_combined = combined_exact.expected_energy(cfg, errors, w, s1, s2)
        e_silent = silent_exact.expected_energy(cfg.with_error_rate(lam), w, s1, s2)
        assert math.isclose(e_combined, e_silent, rel_tol=1e-10)

    @given(cfg=configurations(), lam=rates, f=fracs, w=works, s1=speeds, s2=speeds)
    @settings(max_examples=100, deadline=None)
    def test_recursion_identity(self, cfg, lam, f, w, s1, s2):
        errors = CombinedErrors(lam, f)
        lf, ls = errors.failstop_rate, errors.silent_rate
        V, R, C = cfg.verification_time, cfg.recovery_time, cfg.checkpoint_time
        tau1 = (w + V) / s1
        pf1 = 1 - math.exp(-lf * tau1)
        ps1 = 1 - math.exp(-ls * w / s1)
        tlost = ExponentialArrivals(lf).expected_time_lost((w + V) / s1) if lf > 0 else 0.0
        t = combined_exact.expected_time(cfg, errors, w, s1, s2)
        t22 = combined_exact.expected_time(cfg, errors, w, s2, s2)
        rhs = pf1 * (tlost + R + t22) + (1 - pf1) * (
            tau1 + ps1 * (R + t22) + (1 - ps1) * C
        )
        assert math.isclose(t, rhs, rel_tol=1e-9)

    @given(cfg=configurations(), lam=rates, f=fracs, w=works, s1=speeds)
    @settings(max_examples=100, deadline=None)
    def test_time_below_pure_silent_time_without_verification(self, cfg, lam, f, w, s1):
        # With V = 0 the two sources share the exposure window W/sigma,
        # and fail-stop detection is strictly earlier (Tlost < window),
        # so any f > 0 can only reduce the expected time.  (With V > 0
        # this is FALSE in general: the fail-stop window (W+V)/sigma is
        # larger than the silent window W/sigma, so for W comparable to
        # V fail-stop errors are *more frequent* — hypothesis found
        # exactly that counterexample at W=10, V=5.)
        cfg0 = cfg.with_verification_time(0.0)
        t_f = combined_exact.expected_time(cfg0, CombinedErrors(lam, f), w, s1, s1)
        t_0 = combined_exact.expected_time(cfg0, CombinedErrors(lam, 0.0), w, s1, s1)
        assert t_f <= t_0 * (1 + 1e-9)

    @given(cfg=configurations(), lam=rates, f=fracs, w=works, s1=speeds, s2=speeds)
    @settings(max_examples=100, deadline=None)
    def test_overhead_ratio_identity(self, cfg, lam, f, w, s1, s2):
        errors = CombinedErrors(lam, f)
        assert math.isclose(
            combined_exact.time_overhead(cfg, errors, w, s1, s2),
            combined_exact.expected_time(cfg, errors, w, s1, s2) / w,
            rel_tol=1e-12,
        )
