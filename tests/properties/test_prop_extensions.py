"""Property-based tests for the extension modules (hypothesis)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exact as core_exact
from repro.extensions.multiverif import (
    expected_energy,
    expected_time,
    segment_detection_profile,
)
from repro.platforms import Configuration, Platform, Processor
from repro.sweep.vectorized import config_columns, evaluate_pair_grid

rates = st.floats(min_value=1e-7, max_value=1e-4)
works = st.floats(min_value=100.0, max_value=20000.0)
speeds = st.floats(min_value=0.2, max_value=1.0)
qs = st.integers(min_value=1, max_value=8)
recalls = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def configurations(draw) -> Configuration:
    platform = Platform(
        name="prop",
        error_rate=draw(rates),
        checkpoint_time=draw(st.floats(min_value=10.0, max_value=2000.0)),
        verification_time=draw(st.floats(min_value=0.0, max_value=200.0)),
    )
    processor = Processor(
        name="propcpu",
        speeds=(0.4, 0.7, 1.0),
        kappa=draw(st.floats(min_value=100.0, max_value=8000.0)),
        idle_power=draw(st.floats(min_value=0.0, max_value=500.0)),
    )
    return Configuration(platform=platform, processor=processor)


class TestMultiVerifProperties:
    @given(q=qs, x=st.floats(min_value=0.0, max_value=2.0), r=recalls)
    @settings(max_examples=200, deadline=None)
    def test_detection_profile_is_distribution(self, q, x, r):
        d, p_fail = segment_detection_profile(q, x, r)
        assert np.all(d >= -1e-15)
        assert d.sum() == pytest.approx(p_fail, rel=1e-9, abs=1e-12)
        assert p_fail == pytest.approx(1 - math.exp(-q * x), rel=1e-9, abs=1e-12)

    @given(cfg=configurations(), w=works, s1=speeds, s2=speeds)
    @settings(max_examples=100, deadline=None)
    def test_q1_reduces_to_prop2(self, cfg, w, s1, s2):
        assert expected_time(cfg, w, 1, s1, s2) == pytest.approx(
            core_exact.expected_time(cfg, w, s1, s2), rel=1e-10
        )
        assert expected_energy(cfg, w, 1, s1, s2) == pytest.approx(
            core_exact.expected_energy(cfg, w, s1, s2), rel=1e-10
        )

    @given(cfg=configurations(), w=works, q=qs, s1=speeds)
    @settings(max_examples=100, deadline=None)
    def test_recall_monotonicity(self, cfg, w, q, s1):
        # Better intermediate verifications never increase expected time.
        t_low = expected_time(cfg, w, q, s1, recall=0.2)
        t_high = expected_time(cfg, w, q, s1, recall=0.9)
        assert t_high <= t_low * (1 + 1e-9)

    @given(cfg=configurations(), w=works, q=qs, s1=speeds, s2=speeds, r=recalls)
    @settings(max_examples=100, deadline=None)
    def test_time_above_successful_attempt_floor(self, cfg, w, q, s1, s2, r):
        # Every completed pattern ends with one full successful attempt
        # (at sigma1 or sigma2) plus the checkpoint, so the expectation
        # is bounded below by the *faster* speed's clean attempt.  (The
        # sigma1-based floor is FALSE with early detection: a slow first
        # attempt caught at segment 1 plus a fast re-execution can beat
        # a full clean run at sigma1.)
        floor = (w + q * cfg.verification_time) / max(s1, s2) + cfg.checkpoint_time
        assert expected_time(cfg, w, q, s1, s2, recall=r) >= floor - 1e-9

    @given(cfg=configurations(), w=works, q=qs, s1=speeds, r=recalls)
    @settings(max_examples=100, deadline=None)
    def test_time_above_clean_floor_at_equal_speeds(self, cfg, w, q, s1, r):
        # With sigma2 = sigma1 there is no fast-retry shortcut and the
        # clean-run floor holds unconditionally.
        floor = (w + q * cfg.verification_time) / s1 + cfg.checkpoint_time
        assert expected_time(cfg, w, q, s1, s1, recall=r) >= floor - 1e-9


def _pair_grid(cfg, rho, **overrides):
    """One kernel pass over the s1-major K x K product of ``cfg.speeds``,
    plus the product's speed columns and the diagonal's column indices."""
    k = len(cfg.speeds)
    s1, s2 = np.repeat(cfg.speeds, k), np.tile(cfg.speeds, k)
    columns = {**config_columns([cfg]), **overrides}
    return evaluate_pair_grid(s1, s2, **columns, rho=rho), s1, s2, np.arange(k) * (k + 1)


class TestVectorisedProperties:
    @given(cfg=configurations(), rho=st.floats(min_value=1.5, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_grid_matches_scalar_solver(self, cfg, rho):
        from repro.core.solver import solve_bicrit
        from repro.exceptions import InfeasibleBoundError

        grid, s1, s2, _ = _pair_grid(cfg, rho)
        k = int(np.argmin(grid.energy[0]))
        try:
            best = solve_bicrit(cfg, rho).best
        except InfeasibleBoundError:
            assert np.isinf(grid.energy[0, k])
            return
        assert s1[k] == best.sigma1
        assert s2[k] == best.sigma2
        assert grid.energy[0, k] == best.energy_overhead
        assert grid.work[0, k] == best.work

    @given(cfg=configurations(), rho=st.floats(min_value=1.5, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_diagonal_matches_single_speed_solver(self, cfg, rho):
        from repro.core.singlespeed import solve_single_speed
        from repro.exceptions import InfeasibleBoundError

        grid, s1, _, diag = _pair_grid(cfg, rho)
        k = diag[int(np.argmin(grid.energy[0, diag]))]
        try:
            best = solve_single_speed(cfg, rho).best
        except InfeasibleBoundError:
            assert np.isinf(grid.energy[0, k])
            return
        assert s1[k] == best.sigma1
        assert grid.energy[0, k] == best.energy_overhead
        assert grid.work[0, k] == best.work

    @given(
        cfg=configurations(),
        lams=st.lists(rates, min_size=2, max_size=6),
        rho=st.floats(min_value=2.0, max_value=8.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_speed_never_loses_elementwise(self, cfg, lams, rho):
        grid, _, _, diag = _pair_grid(cfg, rho, lam=np.array(lams))
        two = grid.energy.min(axis=1)
        one = grid.energy[:, diag].min(axis=1)
        ok = np.isfinite(two) & np.isfinite(one)
        assert np.all(two[ok] <= one[ok] + 1e-9)
