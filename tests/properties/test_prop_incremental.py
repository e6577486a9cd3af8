"""Property-based tests on the incremental (warm-started) solve tier.

For random sweeps over every schedule family x error model the
``schedule-grid-incremental`` backend supports, the warm-started solve
must agree with the cold :func:`~repro.schedules.vectorized.solve_schedule_grid`
pass:

* identical per-row feasibility — including sweeps whose low end
  crosses the feasibility boundary (rho below rho_min), where the
  tier must refuse to warm-start across the crossing;
* energy overheads within 1e-9 absolute on every feasible row;
* rows the tier solves cold (anchors, boundary rows, fallbacks)
  byte-identical to the cold pass;
* the stats ledger accounts for every row exactly once.

Examples are kept small (a few dozen points per sweep) so each one
still exercises the full anchor/warm/fallback machinery without
turning the property run into a benchmark.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CombinedErrors, parse_error_model
from repro.platforms import get_configuration
from repro.schedules import Constant, Escalating, Geometric, TwoSpeed
from repro.schedules.incremental import solve_schedule_grid_incremental
from repro.schedules.vectorized import ScheduleGrid, solve_schedule_grid

ENERGY_ATOL = 1e-9

# Speeds inside the model's sensible band; every schedule family the
# grid solver accepts is represented.
speeds = st.floats(min_value=0.2, max_value=1.2, allow_nan=False)


@st.composite
def any_schedule(draw):
    kind = draw(st.sampled_from(("two", "const", "esc", "geom")))
    if kind == "two":
        return TwoSpeed(draw(speeds), draw(speeds))
    if kind == "const":
        return Constant(draw(speeds))
    if kind == "esc":
        head = tuple(draw(st.lists(speeds, min_size=1, max_size=4)))
        return Escalating(head, terminal=draw(speeds))
    sigma1 = draw(st.floats(min_value=0.3, max_value=0.8))
    ratio = draw(st.floats(min_value=1.1, max_value=2.0))
    return Geometric(sigma1, ratio, sigma_max=1.2)


@st.composite
def any_errors(draw):
    """An error model the grid backend supports (None = the config's
    own silent-exponential rate)."""
    kind = draw(st.sampled_from(("silent", "combined", "weibull", "gamma")))
    if kind == "silent":
        return None
    if kind == "combined":
        rate = draw(st.floats(min_value=1e-6, max_value=1e-4))
        frac = draw(st.floats(min_value=0.0, max_value=1.0))
        return CombinedErrors(rate, frac)
    shape = draw(st.floats(min_value=0.5, max_value=2.5))
    mtbf = draw(st.floats(min_value=1e5, max_value=1e6))
    frac = draw(st.sampled_from((0.0, 0.2, 0.5)))
    return parse_error_model(f"{kind}:shape={shape},mtbf={mtbf},failstop={frac}")


def _assert_warm_matches_cold(points, rhos):
    grid = ScheduleGrid.from_points(points)
    cold = solve_schedule_grid(grid, rhos)
    warm = solve_schedule_grid_incremental(grid, rhos)
    assert np.array_equal(cold.feasible, warm.feasible)
    feasible = cold.feasible
    err = np.abs(
        np.where(feasible, warm.energy_overhead - cold.energy_overhead, 0.0)
    )
    assert float(err.max(initial=0.0)) <= ENERGY_ATOL
    cold_rows = ~warm.warm
    assert np.array_equal(
        warm.energy_overhead[cold_rows & feasible],
        cold.energy_overhead[cold_rows & feasible],
    )
    stats = warm.stats
    assert stats.warm + stats.anchors + stats.boundary + stats.fallback == stats.n
    assert stats.n == len(rhos)
    return warm


class TestWarmEqualsCold:
    @settings(max_examples=25)
    @given(
        schedule=any_schedule(),
        errors=any_errors(),
        rho_lo=st.floats(min_value=2.6, max_value=3.5),
        span=st.floats(min_value=0.5, max_value=2.5),
        n=st.integers(min_value=12, max_value=40),
    )
    def test_rho_sweep(self, schedule, errors, rho_lo, span, n):
        """A dense rho sweep of one random (schedule, model) row."""
        cfg = get_configuration("hera-xscale")
        points = [(cfg, schedule, errors)] * n
        rhos = np.linspace(rho_lo, rho_lo + span, n)
        _assert_warm_matches_cold(points, rhos)

    @settings(max_examples=15)
    @given(
        schedule=any_schedule(),
        errors=any_errors(),
        span=st.floats(min_value=1.0, max_value=3.0),
        n=st.integers(min_value=16, max_value=40),
    )
    def test_sweep_crossing_feasibility_boundary(self, schedule, errors, span, n):
        """Sweeps starting below rho_min: the infeasible head rows must
        stay infeasible and the warm restart past the crossing must not
        contaminate the feasible tail."""
        cfg = get_configuration("hera-xscale")
        points = [(cfg, schedule, errors)] * n
        rhos = np.linspace(1.0, 1.0 + span, n)
        _assert_warm_matches_cold(points, rhos)

    @settings(max_examples=15)
    @given(
        schedule=any_schedule(),
        frac=st.floats(min_value=0.0, max_value=1.0),
        rho=st.floats(min_value=2.8, max_value=4.5),
        n=st.integers(min_value=12, max_value=32),
    )
    def test_rate_sweep(self, schedule, frac, rho, n):
        """A combined-model error-rate sweep at fixed rho (the chain
        detector's reparameterised rate axis)."""
        cfg = get_configuration("hera-xscale")
        rates = np.logspace(-6, -4, n)
        points = [
            (cfg, schedule, CombinedErrors(float(rate), frac)) for rate in rates
        ]
        rhos = np.full(n, rho)
        _assert_warm_matches_cold(points, rhos)

    @settings(max_examples=10)
    @given(
        schedule=any_schedule(),
        errors=any_errors(),
        n_rates=st.integers(min_value=3, max_value=6),
        n_rhos=st.integers(min_value=8, max_value=16),
    )
    def test_two_axis_grid(self, schedule, errors, n_rates, n_rhos):
        """A small rate x rho grid: one warm chain per rate."""
        cfg = get_configuration("hera-xscale")
        rates = np.logspace(-6, -4, n_rates)
        points = [
            (cfg.with_error_rate(float(rate)), schedule, errors)
            for rate in rates
            for _ in range(n_rhos)
        ]
        rhos = np.tile(np.linspace(2.8, 5.0, n_rhos), n_rates)
        _assert_warm_matches_cold(points, rhos)
