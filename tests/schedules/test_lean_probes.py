"""Pins of the schedule-grid kernel's lean probes and stacked pass.

:func:`solve_schedule_grid` probes the grid ~275 times per solve
(``ScheduleGrid.time_overhead`` / ``energy_overhead`` and the stage-1
coarse scan).  The probes share :meth:`ScheduleGrid.evaluate`'s
accumulation but skip what they never read: the attempt count, the
identity head masks, and the exponential pass and gather/scatter of a
single-model grid.  Every head column and the tail are evaluated in
one stacked ``(H + 1, rows, m)`` primitive pass, and ``evaluate``
accumulates a long shared work axis in blocks.  None of it may change
a bit:

* ``evaluate`` (plain, truncated, one component), both public probes
  and the solver equal a reference copy of the per-column loop the
  stacked pass replaced (one primitive call per head column and one
  for the tail), over random grids of every row kind, scalar, 1-D and
  ``(n, 1)`` work, and blocks down to one work point;
* each probe equals ``evaluate(w.reshape(-1, 1), components=(c,))``
  divided by ``w`` (non-finite values mapped to ``+inf``), and the
  solver equals a reference whose probes all go through ``evaluate``;
* each arrival family's public primitives are its private ``_cdf`` /
  ``_capped`` / ``_window_primitives`` bit for bit;
* counts, not timings, pin where the work goes: one
  ``_window_primitives`` call per distinct model per probe, on
  ``(H + 1, rows, 1)`` stacks (the whole stacks, with no exponential
  pass, when one model covers the grid), and one ``np.errstate`` per
  solve, while ``evaluate`` enters none; a tracemalloc pin bounds the
  temporaries of a long work axis.

CI reruns this module with every NumPy SIMD dispatch target disabled
(``NPY_DISABLE_CPU_FEATURES``): the kernel calls ufuncs on whole stacks
where it used per-column slices and gathered sub-matrices, so the
identity also relies on NumPy's vector and scalar-tail loops rounding
alike.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CombinedErrors,
    ErrorModel,
    ExponentialArrivals,
    GammaArrivals,
    TraceArrivals,
    WeibullArrivals,
    parse_error_model,
)
from repro.exceptions import InvalidParameterError
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
from repro.schedules.vectorized import evaluate_schedule_batch

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
# (c) The stacked pass equals the per-column loop it replaced
# ----------------------------------------------------------------------
def _column_primitives(grid: ScheduleGrid, w: np.ndarray, s: np.ndarray):
    """One column's ``(p, m)`` through the public primitives."""
    tau = (w + grid.V) / s
    omega = w / s
    groups = grid._model_groups
    if groups and groups[0][1] is None:
        return groups[0][0].per_window_primitives(tau, omega)
    p = -np.expm1(-(grid.lam_f * tau + grid.lam_s * omega))
    m = vectorized._capped_exposure_cols(grid.lam_f, grid._lam_f_divisor, tau)
    for model, idx in groups:
        p[idx], m[idx] = model.per_window_primitives(tau[idx], omega[idx])
    return p, m


def _column_masked(active, x, fill):
    return x if active is None else np.where(active, x, fill)


def _reference_expectations(grid, w, *, components, full, max_attempts=None):
    """The per-column accumulation loop as it was before the stacked
    pass: one primitive call per head column, one for the tail, the
    whole work axis at once."""
    if w.ndim < 2:
        w = np.atleast_2d(w)
    want_time = "time" in components
    want_energy = "energy" in components
    shape = np.broadcast_shapes(w.shape, (grid.n, 1))
    zeros = np.zeros(shape)
    t = grid.C + zeros if want_time else None
    e = grid.C * grid.p_io + zeros if want_energy else None
    attempts = zeros if full else None
    reach = np.ones(shape)

    for j in range(grid.head.shape[1]):
        s = grid.head[:, j : j + 1]
        power = grid.kappa * s**3 + grid.idle
        active = j < grid.head_len
        active = None if active.all() else active
        p, m = _column_primitives(grid, w, s)
        if want_time:
            t = t + _column_masked(active, reach * (m + p * grid.R), 0.0)
        if want_energy:
            e = e + _column_masked(active, reach * (m * power + p * grid.R * grid.p_io), 0.0)
        if full:
            attempts = attempts + _column_masked(active, reach, 0.0)
        reach = reach * _column_masked(active, p, 1.0)

    p_t, m_t = _column_primitives(grid, w, grid.tail)
    tail_power = grid.kappa * grid.tail**3 + grid.idle
    inv_gap = np.divide(1.0, 1.0 - p_t, out=np.full(p_t.shape, np.inf), where=p_t < 1.0)
    tail_time_unit = m_t + p_t * grid.R if want_time else None
    tail_energy_unit = m_t * tail_power + p_t * grid.R * grid.p_io if want_energy else None
    if max_attempts is None:
        geom = reach * inv_gap
        bound_t = np.zeros(shape) if want_time and full else None
        bound_e = np.zeros(shape) if want_energy and full else None
    else:
        n_tail = max_attempts - grid.head_len
        with np.errstate(over="ignore", invalid="ignore"):
            decay = p_t**n_tail
            geom = np.where(p_t < 1.0, reach * (1.0 - decay) * inv_gap, np.inf)
            remainder = np.where(p_t < 1.0, reach * decay * inv_gap, np.inf)
        bound_t = remainder * tail_time_unit if want_time else None
        bound_e = remainder * tail_energy_unit if want_energy else None
    if full:
        attempts = attempts + geom
    if want_time:
        t = t + geom * tail_time_unit
    if want_energy:
        e = e + geom * tail_energy_unit
    return t, e, attempts, bound_t, bound_e


EXPECTATION = ("time", "energy", "attempts", "tail_bound_time", "tail_bound_energy")


def _reference_evaluate(grid, work, *, components=("time", "energy"), max_attempts=None):
    w = np.asarray(work, dtype=np.float64)
    arrays = _reference_expectations(
        grid, w, components=components, full=True, max_attempts=max_attempts
    )
    return SimpleNamespace(
        **{
            name: None if a is None else (a[:, 0] if w.ndim == 0 else a)
            for name, a in zip(EXPECTATION, arrays)
        }
    )


def _reference_probe(grid, w, component):
    with np.errstate(**vectorized._PROBE_ERRSTATE):
        t, e, *_ = _reference_expectations(
            grid, w.reshape(-1, 1), components=(component,), full=False
        )
        vals = (t if component == "time" else e)[:, 0] / w
    return np.where(np.isfinite(vals), vals, np.inf)


class _ReferenceGrid:
    """A grid whose every evaluation runs the per-column loop."""

    def __init__(self, grid: ScheduleGrid):
        self.grid = grid
        self.n = grid.n

    def evaluate(self, work, **kwargs):
        return _reference_evaluate(self.grid, work, **kwargs)

    def time_overhead(self, w):
        return _reference_probe(self.grid, w, "time")

    def energy_overhead(self, w):
        return _reference_probe(self.grid, w, "energy")


#: Block sizes: the module's, then ones that cut every drawn work axis
#: into blocks of one or a few points.
BLOCKS = (vectorized._BLOCK_CELLS, 1, 16, 64)
SMALL_BUDGETS = SolverOptions(coarse=7, bisect_iters=5, golden_iters=3)


@st.composite
def works(draw, n: int):
    """A scalar, a shared work axis (up to 40 points), or one size per row."""
    kind = draw(st.sampled_from(("scalar", "axis", "column")))
    exps = st.floats(min_value=-3.0, max_value=12.0)
    if kind == "scalar":
        return 10.0 ** draw(exps)
    k = draw(st.integers(min_value=1, max_value=40)) if kind == "axis" else n
    w = 10.0 ** np.asarray(draw(st.lists(exps, min_size=k, max_size=k)))
    return w if kind == "axis" else w.reshape(-1, 1)


@settings(max_examples=150)
@given(grid=grids(), data=st.data())
def test_evaluate_equals_per_column_reference(grid, data):
    work = data.draw(works(grid.n))
    max_head = int(grid.head_len.max(initial=0))
    truncate = data.draw(st.sampled_from((None, max(max_head, 1), max_head + 3)))
    components = data.draw(st.sampled_from((("time", "energy"), ("time",), ("energy",))))
    block = data.draw(st.sampled_from(BLOCKS))
    with mock.patch.object(vectorized, "_BLOCK_CELLS", block), np.errstate(all="ignore"):
        got = grid.evaluate(work, components=components, max_attempts=truncate)
        ref = _reference_evaluate(grid, work, components=components, max_attempts=truncate)
    for name in EXPECTATION:
        a, b = getattr(got, name), getattr(ref, name)
        assert (a is None and b is None) or _same_bits(a, b), name


@settings(max_examples=80)
@given(grid=grids(), data=st.data())
def test_public_probes_equal_per_column_reference(grid, data):
    w = _work(data.draw, grid.n)
    assert _same_bits(grid.time_overhead(w), _reference_probe(grid, w, "time"))
    assert _same_bits(grid.energy_overhead(w), _reference_probe(grid, w, "energy"))


@pytest.mark.parametrize("options", [None, SMALL_BUDGETS], ids=["default", "small-budgets"])
@settings(max_examples=12)
@given(grid=grids(max_rows=5), data=st.data())
def test_solver_equals_per_column_reference(options, grid, data):
    rhos = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=1.05, max_value=6.0), min_size=grid.n, max_size=grid.n
            )
        )
    )
    sol = solve_schedule_grid(grid, rhos, options=options)
    ref = _reference_solve(_ReferenceGrid(grid), rhos, options)
    for name in FIELDS:
        assert _same_bits(getattr(sol, name), ref[name]), name


@pytest.mark.parametrize("options", [None, SMALL_BUDGETS], ids=["default", "small-budgets"])
def test_sweep_grid_equals_per_column_reference(options):
    grid, rhos = _sweep_grid()
    sol = solve_schedule_grid(grid, rhos, options=options)
    ref = _reference_solve(_ReferenceGrid(grid), rhos, options)
    for name in FIELDS:
        assert _same_bits(getattr(sol, name), ref[name]), name
    w = np.logspace(-3.0, 12.0, 301)  # 30 blocks of the 1,800-row stacks
    with np.errstate(all="ignore"):
        got = grid.evaluate(w, max_attempts=6)
        want = _reference_evaluate(grid, w, max_attempts=6)
    for name in EXPECTATION:
        assert _same_bits(getattr(got, name), getattr(want, name)), name


# ----------------------------------------------------------------------
# (d) Each family's formula lives in its private primitives
# ----------------------------------------------------------------------
positive = st.floats(min_value=1e-6, max_value=1e7)
processes = st.one_of(
    st.builds(ExponentialArrivals, rate=st.floats(min_value=1e-9, max_value=1e-1)),
    st.builds(WeibullArrivals, shape=st.floats(min_value=0.3, max_value=3.0), scale=positive),
    st.builds(GammaArrivals, shape=st.floats(min_value=0.3, max_value=4.0), scale=positive),
    st.builds(
        TraceArrivals, times=st.lists(positive, min_size=1, max_size=8).map(tuple)
    ),
)
windows = st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=0, max_size=12).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)


@settings(max_examples=120)
@given(process=processes, t=windows, scalar=st.floats(min_value=0.0, max_value=1e9))
def test_family_public_primitives_are_the_private_ones(process, t, scalar):
    assert _same_bits(process.failure_probability(t), process._cdf(t))
    assert _same_bits(process.expected_exposure(t), process._capped(t))
    x = np.asarray(scalar)
    assert _same_bits(process.failure_probability(scalar), float(process._cdf(x)))
    assert _same_bits(process.expected_exposure(scalar), float(process._capped(x)))


@settings(max_examples=120)
@given(
    process=processes,
    failstop=st.sampled_from((0.0, 0.3, 1.0)),
    omega=windows,
    gap=st.floats(min_value=0.0, max_value=1e4),
)
def test_model_public_primitives_are_the_window_primitives(process, failstop, omega, gap):
    model = ErrorModel(process=process, failstop_fraction=failstop)
    tau = omega + gap
    p, m = model.per_window_primitives(tau, omega)
    p_raw, m_raw = model._window_primitives(tau, omega)
    assert _same_bits(p, np.asarray(p_raw, dtype=np.float64))
    assert _same_bits(m, np.asarray(m_raw, dtype=np.float64))


@pytest.mark.parametrize("failstop", [0.0, 0.3, 1.0])
def test_window_primitives_keep_one_sign_check(failstop):
    """The kernel entry still rejects a negative window: the silent
    window ``omega`` when a silent source exists, else ``tau``."""
    model = ErrorModel(process=WeibullArrivals(shape=0.7, scale=1e5), failstop_fraction=failstop)
    bad = np.array([1.0, -1.0])
    with pytest.raises(InvalidParameterError, match="exposure must be >= 0"):
        if failstop == 1.0:
            model._window_primitives(bad, np.ones(2))
        else:
            model._window_primitives(np.ones(2), bad)


# ----------------------------------------------------------------------
# (e) Counts: where a probe's work goes
# ----------------------------------------------------------------------
SCHED = parse_schedule("geom:0.4,1.5,1")  # three head columns + the tail
COLUMNS = len(SCHED.normalized()[0]) + 1


@pytest.fixture
def spy(monkeypatch):
    """Record each ``_window_primitives`` call's ``(model, shape)``,
    the shapes of the exponential passes and the ``np.errstate``
    entries."""
    calls: dict[str, list] = {"model": [], "exp": [], "errstate": []}
    primitives = ErrorModel._window_primitives
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

    monkeypatch.setattr(ErrorModel, "_window_primitives", spy_primitives)
    monkeypatch.setattr(vectorized, "_capped_exposure_cols", spy_capped)
    monkeypatch.setattr(np, "errstate", spy_errstate)
    return calls


def _grid(errors) -> ScheduleGrid:
    return ScheduleGrid.from_points([(HERA, SCHED, e) for e in errors])


class TestProbeCounts:
    N = 24

    @pytest.mark.parametrize("probe", ["time_overhead", "energy_overhead"])
    def test_single_model_grid_takes_the_whole_stacks(self, spy, probe):
        grid = _grid([RENEWAL[0]] * self.N)
        getattr(grid, probe)(np.full(self.N, 1e4))
        assert spy["model"] == [(RENEWAL[0], (COLUMNS, self.N, 1))]
        assert spy["exp"] == []

    def test_mixed_grid_runs_one_exponential_pass_per_probe(self, spy):
        errors = [None, RENEWAL[0]] * (self.N // 2)
        _grid(errors).time_overhead(np.full(self.N, 1e4))
        assert spy["exp"] == [(COLUMNS, self.N, 1)]
        assert spy["model"] == [(RENEWAL[0], (COLUMNS, self.N // 2, 1))]

    def test_each_distinct_model_is_called_once_per_probe(self, spy):
        errors = [None, RENEWAL[0], RENEWAL[3], RENEWAL[0]] * (self.N // 4)
        _grid(errors).energy_overhead(np.full(self.N, 1e4))
        assert spy["exp"] == [(COLUMNS, self.N, 1)]
        assert spy["model"] == [
            (RENEWAL[0], (COLUMNS, self.N // 2, 1)),
            (RENEWAL[3], (COLUMNS, self.N // 4, 1)),
        ]

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


def test_long_work_axis_keeps_temporaries_bounded():
    """A 200-row x 2,000-point mixed evaluate peaks (tracemalloc) at no
    more than 4x the bytes of its five output arrays: the stacks hold
    ``H + 1`` copies of the work grid, so without blocks they would
    read ~9x."""
    schedules = ["esc:0.4,0.6,0.8", "geom:0.4,1.5,1", "geom:0.8,0.5,1,0.2"] * 67
    errors = ["exp:mtbf=3e5", "weibull:shape=0.7,mtbf=3e5", "gamma:shape=2,mtbf=3e5", None] * 50
    w = np.logspace(0.0, 9.0, 2000)
    with np.errstate(all="ignore"):
        evaluate_schedule_batch(HERA, schedules[:12], w[:8], errors=errors[:12])  # imports
        tracemalloc.start()
        try:
            ex = evaluate_schedule_batch(HERA, schedules[:200], w, errors=errors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out_bytes = sum(getattr(ex, name).nbytes for name in EXPECTATION)
    assert out_bytes == 5 * 200 * 2000 * 8
    assert peak <= 4 * out_bytes, peak / out_bytes
