"""Pins of the cold lockstep solver's shared work.

:func:`solve_schedule_grid` runs its rho-independent stage (the coarse
scan and golden polish that give ``w_star`` and ``rho_min``) once per
distinct row, and stops each crossing bisection once no row's bracket
moves.  Neither may change a bit of the answer:

* a reference copy of the solver that scans every row and runs fixed
  ``bisect_iters``-step bisections agrees bit for bit on all seven
  solution arrays over a mixed grid;
* a grid solve equals solving each row alone (``take([i])``);
* a spy on the grid's accumulation loop (``ScheduleGrid._expectations``,
  behind both :meth:`ScheduleGrid.evaluate` and the solver's probes)
  shows stage 1 evaluating only the distinct rows, every later probe
  running on the whole grid, and each bisection on a
  ``schedule_sweep``-shaped grid stopping before its cap.

CI reruns this module with every NumPy SIMD dispatch target disabled
(``NPY_DISABLE_CPU_FEATURES``): stage 1 now evaluates small sub-grids
where it used to evaluate the whole batch, so the identity also relies
on NumPy's vector and scalar-tail loops rounding alike.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CombinedErrors, parse_error_model
from repro.platforms import get_configuration
from repro.schedules import (
    Constant,
    Escalating,
    Geometric,
    ScheduleGrid,
    SolverOptions,
    TwoSpeed,
    parse_schedule,
    solve_schedule_grid,
)
from repro.schedules import vectorized
from repro.schedules.vectorized import (
    DEFAULT_SOLVER_OPTIONS,
    _lockstep_golden,
    _signature_matrix,
)

FIELDS = (
    "work",
    "energy_overhead",
    "time_overhead",
    "w_lo",
    "w_hi",
    "rho_min",
    "feasible",
)


# ----------------------------------------------------------------------
# The solver as it was before the shared stage 1 and the early stop
# ----------------------------------------------------------------------
def _reference_bisect(fn, a, b, fa, *, iters):
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        same = np.sign(fm) == np.sign(fa)
        a = np.where(same, mid, a)
        fa = np.where(same, fm, fa)
        b = np.where(same, b, mid)
    return 0.5 * (a + b)


def _reference_solve(grid, rho, options=None):
    """Coarse scan on every row, fixed-length bisections."""
    opt = DEFAULT_SOLVER_OPTIONS if options is None else options
    n = grid.n
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,)).astype(
        np.float64
    )

    w_grid = np.logspace(math.log10(opt.w_lo), math.log10(opt.w_hi), opt.coarse)
    with np.errstate(over="ignore", invalid="ignore"):
        t_grid = grid.evaluate(w_grid, components=("time",)).time / w_grid
    t_grid = np.where(np.isfinite(t_grid), t_grid, np.inf)
    k = np.argmin(t_grid, axis=1)
    rows = np.arange(n)
    left = w_grid[np.maximum(k - 1, 0)]
    right = w_grid[np.minimum(k + 1, opt.coarse - 1)]
    w_star, t_polish = _lockstep_golden(
        grid.time_overhead, left, right, iters=opt.golden_iters
    )
    t_coarse = t_grid[rows, k]
    use_polish = t_polish <= t_coarse
    w_star = np.where(use_polish, w_star, w_grid[k])
    rho_min = np.where(use_polish, t_polish, t_coarse)
    feasible = rho_min <= rho

    def shifted(w):
        return grid.time_overhead(w) - rho

    lo = np.full(n, opt.w_lo)
    s_lo = shifted(lo)
    need_left = feasible & (s_lo > 0)
    a = np.where(need_left, lo, w_star)
    w1 = _reference_bisect(
        shifted, a, w_star, np.where(need_left, s_lo, -1.0), iters=opt.bisect_iters
    )
    w1 = np.where(need_left, w1, opt.w_lo)
    w1 = np.where(feasible, w1, np.nan)

    hi = np.where(feasible, w_star, opt.w_lo)
    s_hi = shifted(hi)
    for _ in range(64):
        growing = feasible & (s_hi <= 0)
        if not growing.any():
            break
        hi = np.where(growing, hi * 2.0, hi)
        s_hi = np.where(growing, shifted(hi), s_hi)
    a2 = np.where(feasible, w_star, hi)
    w2 = _reference_bisect(
        shifted, a2, hi, np.where(feasible, -1.0, 1.0), iters=opt.bisect_iters
    )
    w2 = np.where(feasible, w2, np.nan)

    b_lo = np.where(feasible, w1, 1.0)
    b_hi = np.where(feasible, w2, 1.0)
    x_e, f_e = _lockstep_golden(
        grid.energy_overhead, b_lo, b_hi, iters=opt.golden_iters
    )
    e1 = grid.energy_overhead(b_lo)
    e2 = grid.energy_overhead(b_hi)
    cand_w = np.stack([x_e, b_lo, b_hi])
    cand_e = np.stack([f_e, e1, e2])
    j = np.argmin(cand_e, axis=0)
    nan = np.where(feasible, 0.0, np.nan)
    return {
        "work": cand_w[j, rows] + nan,
        "energy_overhead": cand_e[j, rows] + nan,
        "time_overhead": grid.time_overhead(np.where(feasible, cand_w[j, rows], 1.0))
        + nan,
        "w_lo": w1,
        "w_hi": w2,
        "rho_min": rho_min,
        "feasible": feasible,
    }


def _same_bits(x, y) -> bool:
    """``np.array_equal`` on the bit patterns (NaN == NaN, -0.0 != 0.0)."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype == np.float64:
        return np.array_equal(x.view(np.uint64), y.view(np.uint64))
    return np.array_equal(x, y)


def _assert_same_solution(sol, ref: dict) -> None:
    for name in FIELDS:
        assert _same_bits(getattr(sol, name), ref[name]), name


def _n_unique(grid: ScheduleGrid) -> int:
    M, _ = _signature_matrix(grid)
    return int(np.unique(M, axis=0).shape[0])


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
HERA = get_configuration("hera-xscale")
ATLAS = get_configuration("atlas-crusoe")

#: Heads of length 0 (Constant), 1 (TwoSpeed), 3 and 4+ (Geometric).
SCHEDULES = (
    Constant(0.6),
    TwoSpeed(0.4, 0.6),
    Escalating((0.4, 0.6, 0.8)),
    parse_schedule("geom:0.8,0.5,1,0.2"),
)

#: Silent-only, fail-stop only, a combined split, a memoryless model
#: (collapses onto the rate columns), and three renewal families.
ERRORS = (
    None,
    CombinedErrors(2e-5, 1.0),
    CombinedErrors(2e-5, 0.5),
    parse_error_model("exp:mtbf=3e5"),
    parse_error_model("weibull:shape=0.7,mtbf=3e5"),
    parse_error_model("gamma:shape=2,mtbf=3e5,failstop=0.2"),
    parse_error_model("trace:times=3e4;9e4;2e5;4e5;8e5,failstop=0.5"),
)


def _mixed_grid() -> tuple[ScheduleGrid, np.ndarray]:
    """Repeated rows at several bounds (1.01 is below every row's
    ``rho_min``) and rows that occur once."""
    points, rhos = [], []
    for c, cfg in enumerate((HERA, ATLAS)):
        for s, sched in enumerate(SCHEDULES):
            for e, errors in enumerate(ERRORS):
                repeats = (1.01, 3.0, 5.0) if (c + s + e) % 2 == 0 else (2.5,)
                for rho in repeats:
                    points.append((cfg, sched, errors))
                    rhos.append(rho)
    return ScheduleGrid.from_points(points), np.asarray(rhos)


def _sweep_grid() -> tuple[ScheduleGrid, np.ndarray]:
    """The ``schedule_sweep`` benchmark batch: 200 bounds x 3 error
    models x 3 schedules on hera-xscale (9 distinct rows)."""
    schedules = [
        parse_schedule(s)
        for s in ("esc:0.4,0.6,0.8", "geom:0.4,1.5,1", "geom:0.8,0.5,1,0.2")
    ]
    models = [
        parse_error_model(m)
        for m in (
            "exp:mtbf=3e5",
            "weibull:shape=0.7,mtbf=3e5",
            "gamma:shape=2,mtbf=3e5",
        )
    ]
    points, rhos = [], []
    for rho in np.linspace(2.8, 5.5, 200):
        for model in models:
            for sched in schedules:
                points.append((HERA, sched, model))
                rhos.append(rho)
    return ScheduleGrid.from_points(points), np.asarray(rhos)


# ----------------------------------------------------------------------
# (a) Bit identity with the reference solver
# ----------------------------------------------------------------------
class TestMatchesReference:
    def test_mixed_grid_shape(self):
        grid, rhos = _mixed_grid()
        assert _n_unique(grid) == 2 * len(SCHEDULES) * len(ERRORS)
        assert _n_unique(grid) < grid.n
        sol = solve_schedule_grid(grid, rhos)
        # The grid exercises both outcomes.
        assert sol.feasible.any() and not sol.feasible.all()
        assert np.any(rhos[~sol.feasible] < sol.rho_min[~sol.feasible])

    @pytest.mark.parametrize(
        "options",
        [None, SolverOptions(coarse=7, bisect_iters=20, golden_iters=9)],
        ids=["default", "small-budgets"],
    )
    def test_mixed_grid_bit_identical(self, options):
        grid, rhos = _mixed_grid()
        _assert_same_solution(
            solve_schedule_grid(grid, rhos, options=options),
            _reference_solve(grid, rhos, options),
        )

    def test_sweep_grid_bit_identical(self):
        grid, rhos = _sweep_grid()
        _assert_same_solution(
            solve_schedule_grid(grid, rhos), _reference_solve(grid, rhos)
        )

    def test_all_rows_unique(self):
        points = [(HERA, TwoSpeed(0.4, 0.8 + 0.01 * i), None) for i in range(6)]
        grid = ScheduleGrid.from_points(points)
        rhos = np.linspace(2.0, 4.0, 6)
        _assert_same_solution(
            solve_schedule_grid(grid, rhos), _reference_solve(grid, rhos)
        )

    def test_duplicates_of_one_row_plus_one_other(self):
        points = [(HERA, parse_schedule("geom:0.4,1.5,1"), None)] * 25
        points.append((HERA, TwoSpeed(0.5, 0.9), CombinedErrors(2e-5, 0.3)))
        grid = ScheduleGrid.from_points(points)
        assert _n_unique(grid) == 2
        rhos = np.linspace(2.6, 5.0, 26)
        _assert_same_solution(
            solve_schedule_grid(grid, rhos), _reference_solve(grid, rhos)
        )


# ----------------------------------------------------------------------
# (b) A grid solve is the union of its one-row solves
# ----------------------------------------------------------------------
speeds = st.floats(min_value=0.2, max_value=1.2, allow_nan=False)


@st.composite
def grid_rows(draw):
    kind = draw(st.sampled_from(("two", "const", "esc", "geom")))
    if kind == "two":
        sched = TwoSpeed(draw(speeds), draw(speeds))
    elif kind == "const":
        sched = Constant(draw(speeds))
    elif kind == "esc":
        head = tuple(draw(st.lists(speeds, min_size=1, max_size=4)))
        sched = Escalating(head, terminal=draw(speeds))
    else:
        sched = Geometric(
            draw(st.floats(min_value=0.3, max_value=0.8)),
            draw(st.floats(min_value=1.1, max_value=2.0)),
            sigma_max=1.2,
        )
    errors = draw(st.sampled_from(ERRORS))
    cfg = draw(st.sampled_from((HERA, ATLAS)))
    return cfg, sched, errors


@settings(max_examples=25)
@given(
    pool=st.lists(grid_rows(), min_size=1, max_size=3),
    picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=1.05, max_value=6.0),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_grid_solve_equals_row_solves(pool, picks):
    # Rows drawn from a small pool, so duplicates are common.
    points = [pool[i % len(pool)] for i, _ in picks]
    rhos = np.asarray([rho for _, rho in picks])
    grid = ScheduleGrid.from_points(points)
    whole = solve_schedule_grid(grid, rhos)
    for i in range(grid.n):
        alone = solve_schedule_grid(grid.take([i]), rhos[i : i + 1])
        for name in FIELDS:
            assert _same_bits(getattr(whole, name)[i : i + 1], getattr(alone, name)), (
                i,
                name,
            )


# ----------------------------------------------------------------------
# (c) Where the evaluations go
# ----------------------------------------------------------------------
@contextmanager
def _spy(monkeypatch):
    """Record ``(rows, work shape, phase)`` of every grid evaluation;
    ``phase`` names the bisection a probe was made in (``None``
    outside them)."""
    calls: list[tuple[int, tuple[int, ...], int | None]] = []
    phase: list[int | None] = [None]
    bisections = [0]
    evaluate = ScheduleGrid._expectations
    bisect = vectorized._lockstep_bisect

    def spy_evaluate(self, work, **kwargs):
        calls.append((self.n, np.shape(work), phase[0]))
        return evaluate(self, work, **kwargs)

    def spy_bisect(*args, **kwargs):
        phase[0] = bisections[0]
        bisections[0] += 1
        try:
            return bisect(*args, **kwargs)
        finally:
            phase[0] = None

    monkeypatch.setattr(ScheduleGrid, "_expectations", spy_evaluate)
    monkeypatch.setattr(vectorized, "_lockstep_bisect", spy_bisect)
    yield calls


def _stage1(calls, n):
    """The leading evaluations made before the first whole-grid one."""
    first_full = next(i for i, (rows, _, _) in enumerate(calls) if rows == n)
    return calls[:first_full], calls[first_full:]


class TestEvaluationCounts:
    def test_stage1_runs_on_distinct_rows(self, monkeypatch):
        grid, rhos = _sweep_grid()
        assert grid.n == 1800
        with _spy(monkeypatch) as calls:
            solve_schedule_grid(grid, rhos)
        stage1, rest = _stage1(calls, grid.n)
        # The coarse scan on the shared axis, then the golden polish
        # (two seed probes, golden_iters - 1 steps, the final probe).
        assert stage1[0] == (9, (DEFAULT_SOLVER_OPTIONS.coarse,), None)
        assert len(stage1) == 1 + 2 + (DEFAULT_SOLVER_OPTIONS.golden_iters - 1) + 1
        assert all(rows == 9 for rows, _, _ in stage1)
        # Every later probe is one pattern size per row of the whole grid.
        assert all(rows == grid.n and shape == (grid.n, 1) for rows, shape, _ in rest)

    def test_bisections_stop_before_the_cap(self, monkeypatch):
        grid, rhos = _sweep_grid()
        with _spy(monkeypatch) as calls:
            solve_schedule_grid(grid, rhos)
        probes = [sum(1 for *_, p in calls if p == k) for k in (0, 1)]
        assert all(0 < count < DEFAULT_SOLVER_OPTIONS.bisect_iters for count in probes), probes

    def test_cap_still_bounds_the_bisection(self, monkeypatch):
        grid, rhos = _sweep_grid()
        opt = SolverOptions(bisect_iters=5)
        with _spy(monkeypatch) as calls:
            solve_schedule_grid(grid, rhos, options=opt)
        assert [sum(1 for *_, p in calls if p == k) for k in (0, 1)] == [5, 5]

    def test_repeated_row_scans_once(self, monkeypatch):
        grid = ScheduleGrid.from_points(
            [(HERA, parse_schedule("geom:0.4,1.5,1"), None)] * 40
        )
        with _spy(monkeypatch) as calls:
            solve_schedule_grid(grid, np.linspace(2.8, 5.5, 40))
        stage1, _ = _stage1(calls, grid.n)
        assert {rows for rows, _, _ in stage1} == {1}

    def test_distinct_rows_are_not_collapsed(self, monkeypatch):
        points = [(HERA, TwoSpeed(0.4, 0.8 + 0.01 * i), None) for i in range(6)]
        grid = ScheduleGrid.from_points(points)
        seen = []
        take = ScheduleGrid.take

        def spy_take(self, indices):
            seen.append(indices)
            return take(self, indices)

        monkeypatch.setattr(ScheduleGrid, "take", spy_take)
        with _spy(monkeypatch) as calls:
            solve_schedule_grid(grid, 3.0)
        # No sub-grid when every row is distinct: stage 1 runs on the grid.
        assert seen == []
        assert calls[0] == (6, (DEFAULT_SOLVER_OPTIONS.coarse,), None)
