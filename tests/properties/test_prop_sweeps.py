"""Property-based tests on sweep-shaped batches of the cold grid solver.

A sweep repeats one (configuration, schedule, error model) row under
many bounds, or moves one error rate; the cold
:func:`~repro.schedules.vectorized.solve_schedule_grid` runs its
rho-independent stage once per distinct row and gathers it back.  For
random sweeps over every schedule family x error model the grid
solver supports:

* the solve is order-equivariant — a shuffled sweep returns the
  shuffled rows of the sorted solve, bit for bit;
* one row under many bounds shares one ``rho_min``, is feasible
  exactly where ``rho >= rho_min``, and its energy overhead never
  grows as the bound loosens;
* a rate x rho grid equals its per-rate sweeps solved one by one;
* a combined-model rate sweep at fixed rho gets dearer (``rho_min``
  and energy) as the error rate grows.

Examples are kept small (a few dozen points per sweep) so the suite
stays a correctness check, not a benchmark.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CombinedErrors, parse_error_model
from repro.platforms import get_configuration
from repro.schedules import Constant, Escalating, Geometric, TwoSpeed
from repro.schedules.vectorized import ScheduleGrid, solve_schedule_grid

#: Relative slack on "never grows": two feasible intervals of one row
#: polish the same flat minimum to within a few ulps.
MONOTONE_RTOL = 1e-12

FIELDS = (
    "work", "energy_overhead", "time_overhead", "w_lo", "w_hi",
    "rho_min", "feasible",
)

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


def _solve(points, rhos):
    return solve_schedule_grid(ScheduleGrid.from_points(points), rhos)


def _assert_rows_equal(sol, ref, idx=slice(None)):
    for field in FIELDS:
        assert np.array_equal(
            getattr(sol, field), getattr(ref, field)[idx], equal_nan=True
        ), field


def _assert_one_row_sweep(sol, rhos):
    """The contract of one row under ascending bounds ``rhos``."""
    assert np.unique(sol.rho_min).size == 1
    assert np.all(np.isfinite(sol.rho_min))
    assert np.array_equal(sol.feasible, rhos >= sol.rho_min)
    assert np.all(np.isnan(sol.energy_overhead[~sol.feasible]))
    energy = sol.energy_overhead[sol.feasible]
    assert np.all(np.diff(energy) <= MONOTONE_RTOL * np.abs(energy[:-1]))


class TestSweepContracts:
    @settings(max_examples=15)
    @given(
        schedule=any_schedule(),
        errors=any_errors(),
        rho_lo=st.floats(min_value=2.6, max_value=3.5),
        span=st.floats(min_value=0.5, max_value=2.5),
        n=st.integers(min_value=12, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_rho_sweep(self, schedule, errors, rho_lo, span, n, seed):
        """A dense rho sweep of one random (schedule, model) row, in
        order and shuffled."""
        cfg = get_configuration("hera-xscale")
        points = [(cfg, schedule, errors)] * n
        rhos = np.linspace(rho_lo, rho_lo + span, n)
        ordered = _solve(points, rhos)
        _assert_one_row_sweep(ordered, rhos)
        perm = np.random.default_rng(seed).permutation(n)
        _assert_rows_equal(_solve(points, rhos[perm]), ordered, perm)

    @settings(max_examples=10)
    @given(
        schedule=any_schedule(),
        errors=any_errors(),
        span=st.floats(min_value=1.0, max_value=3.0),
        n=st.integers(min_value=16, max_value=40),
    )
    def test_sweep_crossing_feasibility_boundary(self, schedule, errors, span, n):
        """Sweeps from rho = 1, below rho_min unless the first attempt
        runs faster than nominal: the infeasible head rows stay
        infeasible with NaN results and the feasible tail is unharmed."""
        cfg = get_configuration("hera-xscale")
        rhos = np.linspace(1.0, 1.0 + span, n)
        sol = _solve([(cfg, schedule, errors)] * n, rhos)
        _assert_one_row_sweep(sol, rhos)
        tail = sol.feasible
        assert np.all(np.isfinite(sol.work[tail]))
        assert np.all(sol.time_overhead[tail] <= rhos[tail] * (1 + 1e-9))

    @settings(max_examples=10)
    @given(
        schedule=any_schedule(),
        frac=st.floats(min_value=0.0, max_value=1.0),
        rho=st.floats(min_value=2.8, max_value=4.5),
        n=st.integers(min_value=12, max_value=32),
    )
    def test_rate_sweep(self, schedule, frac, rho, n):
        """A combined-model error-rate sweep at fixed rho: more errors
        never make a row cheaper or easier to satisfy."""
        cfg = get_configuration("hera-xscale")
        rates = np.logspace(-6, -4, n)
        sol = _solve(
            [(cfg, schedule, CombinedErrors(float(rate), frac)) for rate in rates],
            rho,
        )
        assert np.all(np.diff(sol.rho_min) >= 0)
        feasible = sol.feasible
        # Feasibility is a prefix of the ascending-rate sweep.
        assert np.all(np.diff(feasible.astype(int)) <= 0)
        energy = sol.energy_overhead[feasible]
        assert np.all(np.diff(energy) >= -MONOTONE_RTOL * np.abs(energy[:-1]))

    @settings(max_examples=8)
    @given(
        schedule=any_schedule(),
        errors=any_errors(),
        n_rates=st.integers(min_value=3, max_value=6),
        n_rhos=st.integers(min_value=8, max_value=16),
    )
    def test_two_axis_grid(self, schedule, errors, n_rates, n_rhos):
        """A small rate x rho grid equals its per-rate sweeps."""
        cfg = get_configuration("hera-xscale")
        rates = np.logspace(-6, -4, n_rates)
        sweep_rhos = np.linspace(2.8, 5.0, n_rhos)
        blocks = [
            [(cfg.with_error_rate(float(rate)), schedule, errors)] * n_rhos
            for rate in rates
        ]
        grid = _solve(
            [p for block in blocks for p in block], np.tile(sweep_rhos, n_rates)
        )
        for k, block in enumerate(blocks):
            _assert_rows_equal(
                _solve(block, sweep_rhos), grid, slice(k * n_rhos, (k + 1) * n_rhos)
            )
