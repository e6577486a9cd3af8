"""Pins of the schedule-grid solver's lean probes.

:func:`solve_schedule_grid` probes the grid ~275 times per solve
(``ScheduleGrid.time_overhead`` / ``energy_overhead`` and the stage-1
coarse scan).  The probes share :meth:`ScheduleGrid.evaluate`'s
accumulation loop but skip what they never read: the attempt count,
the identity head masks, and the exponential pass and gather/scatter
of a single-model grid.  None of
it may change a bit:

* each probe equals ``evaluate(w.reshape(-1, 1), components=(c,))``
  divided by ``w`` (non-finite values mapped to ``+inf``) bit for bit,
  over random grids of every row kind;
* the solver's seven arrays equal those of a reference solver whose
  probes all go through :meth:`ScheduleGrid.evaluate`;
* counts, not timings, pin where the work goes: per head column one
  ``per_window_primitives`` call per distinct model (on the whole
  arrays and with no exponential pass when one model covers the grid),
  and one ``np.errstate`` per solve, while ``evaluate`` enters none.

CI reruns this module with every NumPy SIMD dispatch target disabled
(``NPY_DISABLE_CPU_FEATURES``): the probes call ufuncs on whole arrays
where they used gathered sub-matrices, so the identity also relies on
NumPy's vector and scalar-tail loops rounding alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CombinedErrors, ErrorModel, parse_error_model
from repro.platforms import get_configuration
from repro.schedules import (
    Constant,
    Escalating,
    ScheduleGrid,
    SolverOptions,
    parse_schedule,
    solve_schedule_grid,
)
from repro.schedules import vectorized

from .test_cold_solver import FIELDS, _reference_solve, _same_bits, _sweep_grid

HERA = get_configuration("hera-xscale")
ATLAS = get_configuration("atlas-crusoe")

#: Renewal rows: each family, fail-stop only, a split, and a trace.
RENEWAL = (
    parse_error_model("weibull:shape=0.7,mtbf=3e5"),
    parse_error_model("weibull:shape=0.7,mtbf=3e5,failstop=1"),
    parse_error_model("gamma:shape=2,mtbf=3e5"),
    parse_error_model("gamma:shape=2,mtbf=3e5,failstop=0.2"),
    parse_error_model("trace:times=3e4;9e4;2e5;4e5;8e5,failstop=0.5"),
)
#: Rows on the exponential rate columns (a memoryless model collapses
#: onto them).
EXPONENTIAL = (
    None,
    CombinedErrors(2e-5, 1.0),
    CombinedErrors(2e-5, 0.5),
    parse_error_model("exp:mtbf=3e5"),
)


# ----------------------------------------------------------------------
# The probes as they were: through the public evaluate
# ----------------------------------------------------------------------
def _evaluate_probe(grid: ScheduleGrid, w: np.ndarray, component: str) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        ex = grid.evaluate(w.reshape(-1, 1), components=(component,))
        vals = getattr(ex, component)[:, 0] / w
    return np.where(np.isfinite(vals), vals, np.inf)


class _EvaluateProbes:
    """A grid whose overhead probes all go through ``evaluate``."""

    def __init__(self, grid: ScheduleGrid):
        self.grid = grid
        self.n = grid.n
        self.evaluate = grid.evaluate

    def time_overhead(self, w: np.ndarray) -> np.ndarray:
        return _evaluate_probe(self.grid, w, "time")

    def energy_overhead(self, w: np.ndarray) -> np.ndarray:
        return _evaluate_probe(self.grid, w, "energy")


# ----------------------------------------------------------------------
# Random grids
# ----------------------------------------------------------------------
speeds = st.floats(min_value=0.2, max_value=1.2, allow_nan=False)


@st.composite
def schedules(draw):
    """Head lengths 0-4, so a batch's head masks are uneven."""
    tail = draw(speeds)
    k = draw(st.integers(min_value=0, max_value=4))
    if k == 0:
        return Constant(tail)
    head = draw(st.lists(speeds.filter(lambda s: s != tail), min_size=k, max_size=k))
    return Escalating(tuple(head), terminal=tail)


@st.composite
def grids(draw, max_rows: int = 6):
    """One renewal model on every row, renewal models only,
    exponential rows only, or a mix of everything."""
    kind = draw(st.sampled_from(("single", "renewal", "exponential", "mixed")))
    n = draw(st.integers(min_value=1, max_value=max_rows))
    if kind == "single":
        model = draw(st.sampled_from(RENEWAL))
        errors = [model] * n
    else:
        pool = {"renewal": RENEWAL, "exponential": EXPONENTIAL}.get(kind, RENEWAL + EXPONENTIAL)
        errors = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    points = [
        (draw(st.sampled_from((HERA, ATLAS))), draw(schedules()), e) for e in errors
    ]
    return ScheduleGrid.from_points(points)


def _work(draw, n: int) -> np.ndarray:
    """Per-row pattern sizes across the whole search window (the large
    ones overflow to non-finite overheads)."""
    exps = draw(st.lists(st.floats(min_value=-3.0, max_value=12.0), min_size=n, max_size=n))
    return np.asarray([10.0**x for x in exps])


# ----------------------------------------------------------------------
# (a) Each probe is the evaluate it replaced, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=80)
@given(data=st.data())
def test_probes_equal_evaluate(data):
    grid = data.draw(grids())
    w = _work(data.draw, grid.n)
    assert _same_bits(grid.time_overhead(w), _evaluate_probe(grid, w, "time"))
    assert _same_bits(grid.energy_overhead(w), _evaluate_probe(grid, w, "energy"))


@settings(max_examples=40)
@given(grid=grids())
def test_coarse_scan_equals_evaluate(grid):
    w_grid = np.logspace(-3.0, 12.0, 25)
    with np.errstate(**vectorized._PROBE_ERRSTATE):
        lean, *_ = grid._expectations(w_grid, components=("time",), full=False)
    assert _same_bits(lean, grid.evaluate(w_grid, components=("time",)).time)


# ----------------------------------------------------------------------
# (b) The solver equals a reference whose probes go through evaluate
# ----------------------------------------------------------------------
@settings(max_examples=15)
@given(grid=grids(max_rows=5), data=st.data())
def test_solver_equals_evaluate_probes(grid, data):
    rhos = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=1.05, max_value=6.0), min_size=grid.n, max_size=grid.n
            )
        )
    )
    sol = solve_schedule_grid(grid, rhos)
    ref = _reference_solve(_EvaluateProbes(grid), rhos)
    for name in FIELDS:
        assert _same_bits(getattr(sol, name), ref[name]), name


@pytest.mark.parametrize(
    "options",
    [None, SolverOptions(coarse=7, bisect_iters=20, golden_iters=9)],
    ids=["default", "small-budgets"],
)
def test_sweep_grid_equals_evaluate_probes(options):
    """The ``schedule_sweep`` batch (exp, Weibull and Gamma rows, head
    lengths 2-4) against the evaluate-probe reference."""
    grid, rhos = _sweep_grid()
    sol = solve_schedule_grid(grid, rhos, options=options)
    ref = _reference_solve(_EvaluateProbes(grid), rhos, options)
    for name in FIELDS:
        assert _same_bits(getattr(sol, name), ref[name]), name


# ----------------------------------------------------------------------
# (c) Counts: where a probe's work goes
# ----------------------------------------------------------------------
SCHED = parse_schedule("geom:0.4,1.5,1")  # three head columns + the tail
COLUMNS = len(SCHED.normalized()[0]) + 1


@pytest.fixture
def spy(monkeypatch):
    """Record each ``per_window_primitives`` call's ``(model, rows)``,
    count the exponential column passes and the ``np.errstate``
    entries."""
    calls: dict[str, list] = {"model": [], "exp": [], "errstate": []}
    primitives = ErrorModel.per_window_primitives
    capped = vectorized._capped_exposure_cols
    errstate = np.errstate

    def spy_primitives(self, tau, omega):
        calls["model"].append((self, np.shape(tau)))
        return primitives(self, tau, omega)

    def spy_capped(lam_f, divisor, tau):
        calls["exp"].append(np.shape(tau))
        return capped(lam_f, divisor, tau)

    def spy_errstate(**kwargs):
        calls["errstate"].append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(ErrorModel, "per_window_primitives", spy_primitives)
    monkeypatch.setattr(vectorized, "_capped_exposure_cols", spy_capped)
    monkeypatch.setattr(np, "errstate", spy_errstate)
    return calls


def _grid(errors) -> ScheduleGrid:
    return ScheduleGrid.from_points([(HERA, SCHED, e) for e in errors])


class TestProbeCounts:
    N = 24

    @pytest.mark.parametrize("probe", ["time_overhead", "energy_overhead"])
    def test_single_model_grid_takes_the_whole_arrays(self, spy, probe):
        grid = _grid([RENEWAL[0]] * self.N)
        getattr(grid, probe)(np.full(self.N, 1e4))
        assert spy["model"] == [(RENEWAL[0], (self.N, 1))] * COLUMNS
        assert spy["exp"] == []

    def test_mixed_grid_runs_one_exponential_pass_per_column(self, spy):
        errors = [None, RENEWAL[0]] * (self.N // 2)
        _grid(errors).time_overhead(np.full(self.N, 1e4))
        assert spy["exp"] == [(self.N, 1)] * COLUMNS
        assert spy["model"] == [(RENEWAL[0], (self.N // 2, 1))] * COLUMNS

    @pytest.mark.parametrize(
        "errors",
        [[RENEWAL[0]] * 24, [None, RENEWAL[0], RENEWAL[3]] * 8],
        ids=["single-model", "mixed"],
    )
    def test_one_errstate_per_solve(self, spy, errors):
        solve_schedule_grid(_grid(errors), np.linspace(2.8, 5.5, len(errors)))
        assert len(spy["errstate"]) == 1

    def test_public_surfaces_keep_their_error_states(self, spy):
        """``evaluate`` silences nothing (a model's warnings reach its
        caller); a public probe enters the probes' state once."""
        grid = _grid([None, RENEWAL[0]] * (self.N // 2))
        grid.evaluate(np.full(self.N, 1e4))
        assert spy["errstate"] == []
        grid.energy_overhead(np.full(self.N, 1e4))
        assert spy["errstate"] == [vectorized._PROBE_ERRSTATE]


def test_evaluate_raises_no_warning_of_its_own():
    """The exponential pass's ``0/0`` (rows with no fail-stop rate) and
    the tail's ``1/0`` (a sure failure) are masked out before they
    happen, so ``evaluate`` needs no ``np.errstate`` for them."""
    grid = ScheduleGrid.from_points(
        [(HERA, Constant(1.0), None), (HERA, Constant(0.5), CombinedErrors(2e-5, 0.5))]
    )
    with np.errstate(all="raise"):
        ex = grid.evaluate(np.array([1e3, 1e9]))
    assert np.all(ex.time[:, 0] < np.inf) and np.all(ex.time[:, 1] == np.inf)
