"""Vectorised batched schedule evaluation: whole grids in broadcast NumPy.

The two-speed model has a vectorised batch path (the ``firstorder``
backend's ``solve_batch``, ~17x over the per-scenario loop); general
schedules were still evaluated one
scenario at a time in scalar Python.  This module closes that gap: a
:class:`ScheduleGrid` stacks the model parameters of many
``(configuration, schedule, error-model)`` points into arrays so that

* the per-attempt failure/exposure primitives broadcast over an
  ``(attempt column, point, work)`` stack — one pass evaluates *every*
  head speed and the tail of *every* point at *every* pattern size;
* the closed-form geometric tails are computed column-wise (one
  ``expm1``/``where`` chain for the whole grid, exactly as in
  :mod:`repro.schedules.evaluator`);
* the constrained solver's pattern-size search becomes a *masked
  argmin* over the shared coarse work grid followed by lockstep
  bisection (feasibility crossings) and lockstep golden-section
  (energy minimisation) — every iteration is one broadcast evaluation
  of all points, never a Python-level per-point loop.

Schedules have different head lengths, so heads are padded to the
batch's maximum and masked per row: a padded slot contributes exactly
``t + 0.0`` / ``reach * 1.0``, which keeps every row's arithmetic
identical to its stand-alone scalar evaluation — results do not depend
on which other schedules share the batch, and the batched evaluator
agrees with :func:`repro.schedules.evaluator.evaluate_schedule` to the
last few ulps (the equivalence tests pin ``rtol = 1e-12``).

The solver mirrors :func:`repro.schedules.solver.solve_schedule` stage
by stage (same coarse grid, same feasibility rule, same candidate
order) but replaces the scalar SciPy Brent calls with fixed-iteration
lockstep searches; the constrained optimum it returns matches the
scalar path to the optimiser placement tolerance (``<= 1e-12`` relative
on the energy objective, ``~1e-8`` on the optimal pattern size).  The
``schedule-grid`` backend of :mod:`repro.api.backends` wraps all of
this behind ``Experiment`` batches; ``benchmarks/bench_schedule_grid.py``
measures the speedup over the per-scenario loop
(``results/schedule_grid_bench.csv``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np

from ..errors.models import ErrorModel, ErrorModelLike, as_error_model
from ..exceptions import InvalidParameterError, InvalidTruncationError
from ..platforms.configuration import Configuration
from ..quantities import FloatArray, ScalarOrArray
from .base import SpeedSchedule, as_schedule
from .evaluator import ScheduleExpectation

__all__ = [
    "ScheduleGrid",
    "ScheduleGridSolution",
    "SolverOptions",
    "DEFAULT_SOLVER_OPTIONS",
    "evaluate_schedule_batch",
    "solve_schedule_batch",
    "solve_schedule_grid",
]

#: Pattern-size search window and coarse-scan resolution — identical to
#: :func:`repro.core.numeric.minimize_unimodal` so the batched solver
#: localises the same basin as the scalar path.  These module constants
#: are the *defaults* of :class:`SolverOptions`; callers tune the
#: solver through an options object, never by mutating these.
_W_LO = 1e-3
_W_HI = 1e12
_COARSE = 200

#: Lockstep iteration budgets.  Bisection halves the bracket each step;
#: 96 is a cap (enough to shrink any bracket inside the search window to
#: below one ulp), and the loop stops earlier once no row's bracket
#: moves.  Golden section contracts by ~0.618 and always runs its 72
#: steps (~8e-16 of the bracket, tighter than the scalar solver's SciPy
#: tolerances).
_BISECT_ITERS = 96
_GOLDEN_ITERS = 72
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SolverOptions:
    """Typed knobs of :func:`solve_schedule_grid`'s lockstep stages.

    The defaults reproduce the historical module-level constants
    exactly (the regression tests pin that a default-constructed
    options object changes nothing), so existing callers are
    unaffected; tests pass small budgets (a short coarse scan, few
    bisection steps) to exercise the solver's early stops and edge
    cases cheaply.

    Parameters
    ----------
    w_lo, w_hi:
        The pattern-size search window (must satisfy
        ``0 < w_lo < w_hi``, both finite).
    coarse:
        Number of log-spaced coarse-scan points (>= 3, so the argmin
        always has a left and right neighbour to polish between).
    bisect_iters:
        Lockstep bisection iterations for the feasibility crossings.
    golden_iters:
        Lockstep golden-section iterations (>= 2: the recurrence needs
        its two seed probes).
    """

    w_lo: float = _W_LO
    w_hi: float = _W_HI
    coarse: int = _COARSE
    bisect_iters: int = _BISECT_ITERS
    golden_iters: int = _GOLDEN_ITERS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w_lo) and self.w_lo > 0):
            raise InvalidParameterError(
                f"w_lo must be finite and > 0, got {self.w_lo!r}"
            )
        if not (math.isfinite(self.w_hi) and self.w_hi > self.w_lo):
            raise InvalidParameterError(
                f"w_hi must be finite and > w_lo ({self.w_lo!r}), "
                f"got {self.w_hi!r}"
            )
        if self.coarse < 3:
            raise InvalidParameterError(
                f"coarse must be >= 3 (argmin needs neighbours to polish "
                f"between), got {self.coarse!r}"
            )
        if self.bisect_iters < 1:
            raise InvalidParameterError(
                f"bisect_iters must be >= 1, got {self.bisect_iters!r}"
            )
        if self.golden_iters < 2:
            raise InvalidParameterError(
                f"golden_iters must be >= 2 (the recurrence needs its seed "
                f"probes), got {self.golden_iters!r}"
            )


#: The historical solver behaviour: every ``options=None`` call sees
#: exactly these values.
DEFAULT_SOLVER_OPTIONS = SolverOptions()

#: The error state of the overhead probes, which map overflow and
#: ``0 * inf`` to ``+inf``; a solve enters it once for all its probes.
_PROBE_ERRSTATE = {"over": "ignore", "invalid": "ignore"}

#: Stacked cells (``(H + 1) * rows * work points``) per accumulation
#: block of :meth:`ScheduleGrid._expectations`: bounds the temporaries
#: of a long shared work axis (2 MiB per float64 stack).
_BLOCK_CELLS = 1 << 18


def _capped_exposure_cols(lam_f: np.ndarray, divisor: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Column-wise :func:`repro.errors.exponential.capped_exposure`.

    Same direct/series split at ``x < 1e-8`` as the scalar helper so the
    batched primitives track it bit-for-bit; ``lam_f == 0`` rows land in
    the series branch, whose value is exactly ``tau``.  ``divisor`` is
    ``lam_f`` with those zeros set to 1, so the discarded direct branch
    raises no ``0/0`` warning.
    """
    x = lam_f * tau
    direct = -np.expm1(-x) / divisor
    series = tau * (1.0 - x / 2.0 + x * x / 6.0)
    return np.where(x < 1e-8, series, direct)


@dataclass(frozen=True)
class ScheduleGrid:
    """Many ``(configuration, schedule, error-model)`` points as arrays.

    All parameter arrays have shape ``(n, 1)`` so they broadcast against
    a trailing work axis; ``head`` is ``(n, H)`` with each row's head
    speeds padded to the batch maximum ``H`` (padded slots are masked
    out by ``head_len`` during evaluation, so padding never changes a
    row's value).  Build instances with :meth:`from_points`.

    Rows may mix error models: exponential rows (``None``, or a
    memoryless :class:`ErrorModel`) live entirely in the
    ``lam_f``/``lam_s`` columns, filled from the model's source rates,
    so one exponential pass serves every exponential row whatever its
    model and keeps the scalar evaluator's arithmetic bit for bit; rows
    carrying a general renewal :class:`ErrorModel` are listed in
    ``models`` and have their per-attempt primitives computed through
    the model's renewal CDFs.  Every evaluation is one primitive pass
    over ``(H + 1, n, m)`` stacks — the head columns, then the tail, of
    every row at every work point — with one call per distinct model,
    so a mixed grid still evaluates in broadcast passes.
    """

    head: np.ndarray
    head_len: np.ndarray
    tail: np.ndarray
    lam_f: np.ndarray
    lam_s: np.ndarray
    C: np.ndarray
    V: np.ndarray
    R: np.ndarray
    kappa: np.ndarray
    idle: np.ndarray
    p_io: np.ndarray
    #: Non-exponential rows as ``(row_index, model)`` pairs; their
    #: ``lam_f``/``lam_s`` column entries are placeholders (0).
    models: tuple[tuple[int, ErrorModel], ...] = ()
    #: Rows grouped by *distinct* model, precomputed so the hot
    #: ``_primitives`` path makes one vectorised sub-stack call per
    #: model rather than one per row (a study grid typically shares a
    #: handful of models across many (schedule, rho) rows).  A model
    #: covering every row has index ``None``: its call takes the whole
    #: stacks, with no gather or scatter.
    _model_groups: tuple[tuple[ErrorModel, np.ndarray | None], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    #: ``lam_f`` with zeros set to 1 (see :func:`_capped_exposure_cols`).
    _lam_f_divisor: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``(H + 1, n, 1)`` stacks hoisted out of every evaluation: the
    #: speeds of the head columns and then the tail, and their powers
    #: ``kappa * s**3 + idle``.
    _speeds: np.ndarray = field(init=False, repr=False, compare=False)
    _powers: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``(H, n, 1)``: the rows still in their head at each head column
    #: (``None`` when every row has a full head, so no mask is applied).
    _active: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        groups: dict[ErrorModel, list[int]] = {}
        for i, model in self.models:
            groups.setdefault(model, []).append(i)
        whole = len(groups) == 1 and len({i for i, _ in self.models}) == self.n
        object.__setattr__(
            self,
            "_model_groups",
            tuple(
                (model, None if whole else np.asarray(idx, dtype=np.intp))
                for model, idx in groups.items()
            ),
        )
        object.__setattr__(self, "_lam_f_divisor", np.where(self.lam_f == 0, 1.0, self.lam_f))
        H = self.head.shape[1]
        # One (n, 1) slice per column, each powered on its own, so every
        # power rounds as the per-column evaluation always did.
        cols = [self.head[:, j : j + 1] for j in range(H)] + [self.tail]
        object.__setattr__(self, "_speeds", np.stack(cols))
        object.__setattr__(self, "_powers", np.stack([self.kappa * s**3 + self.idle for s in cols]))
        active = np.arange(H)[:, None, None] < self.head_len
        object.__setattr__(self, "_active", None if active.all() else active)

    @property
    def n(self) -> int:
        """Number of grid points (rows)."""
        return self.tail.shape[0]

    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls,
        points: Sequence[tuple[Configuration, SpeedSchedule, ErrorModelLike]],
    ) -> "ScheduleGrid":
        """Stack ``(cfg, schedule, errors)`` triples into one grid.

        ``errors=None`` means silent-only at the configuration's own
        rate, matching the scalar evaluator's default; any other entry
        is lifted by :func:`~repro.errors.models.as_error_model`
        (memoryless models fill the exponential rate columns, general
        models become ``models`` rows).
        """
        if not points:
            raise InvalidParameterError("a schedule grid needs at least one point")
        n = len(points)
        normalized = [sched.normalized() for _, sched, _ in points]
        H = max((len(h) for h, _ in normalized), default=0)

        def col(values: Sequence[float]) -> FloatArray:
            return np.asarray(values, dtype=np.float64).reshape(n, 1)

        tail = col([t for _, t in normalized])
        head = np.broadcast_to(tail, (n, max(H, 1))).copy()[:, :H]
        for i, (h, _) in enumerate(normalized):
            head[i, : len(h)] = h
        lam_f, lam_s = [], []
        models: list[tuple[int, ErrorModel]] = []
        for i, (cfg, _, spec) in enumerate(points):
            errors = as_error_model(spec)
            if errors is None:
                lam_f.append(0.0)
                lam_s.append(cfg.lam)
            elif errors.is_memoryless:
                rate_f, rate_s = errors._rates()
                lam_f.append(rate_f)
                lam_s.append(rate_s)
            else:
                # General renewal row: the rate columns are placeholders
                # (the exponential pass writes zeros there, which the
                # model overwrite in _primitives replaces).
                lam_f.append(0.0)
                lam_s.append(0.0)
                models.append((i, errors))
        return cls(
            head=head,
            head_len=col([len(h) for h, _ in normalized]),
            tail=tail,
            lam_f=col(lam_f),
            lam_s=col(lam_s),
            models=tuple(models),
            C=col([cfg.checkpoint_time for cfg, _, _ in points]),
            V=col([cfg.verification_time for cfg, _, _ in points]),
            R=col([cfg.recovery_time for cfg, _, _ in points]),
            kappa=col([cfg.processor.kappa for cfg, _, _ in points]),
            idle=col([cfg.processor.idle_power for cfg, _, _ in points]),
            p_io=col([cfg.io_power + cfg.processor.idle_power for cfg, _, _ in points]),
        )

    # ------------------------------------------------------------------
    def take(self, indices: "Sequence[int] | np.ndarray") -> "ScheduleGrid":
        """A row-subset grid (``indices`` order, which must be unique).

        Rows are evaluated independently (padded heads are masked per
        row), so a taken row's expectations are byte-identical to the
        same row inside the parent grid — the property the cold
        solver's once-per-distinct-row stage 1 relies on.  ``models``
        row indices are remapped to the subset's positions.
        """
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        # Sorted neighbours, not a 1-D np.unique: that imports numpy.ma
        # on first use (~2 MB per process), and every cold solve with a
        # repeated row takes a sub-grid.
        ordered = np.sort(idx)
        if np.any(ordered[1:] == ordered[:-1]):
            raise InvalidParameterError("take() indices must be unique")
        model_map = dict(self.models)
        models = tuple(
            (pos, model_map[int(i)])
            for pos, i in enumerate(idx)
            if int(i) in model_map
        )
        return type(self)(
            head=self.head[idx],
            head_len=self.head_len[idx],
            tail=self.tail[idx],
            lam_f=self.lam_f[idx],
            lam_s=self.lam_s[idx],
            models=models,
            C=self.C[idx],
            V=self.V[idx],
            R=self.R[idx],
            kappa=self.kappa[idx],
            idle=self.idle[idx],
            p_io=self.p_io[idx],
        )

    # ------------------------------------------------------------------
    def _primitives(self, w: FloatArray) -> tuple[FloatArray, FloatArray]:
        """Per-attempt ``(failure probability, capped exposure)`` of
        every head column and the tail, as ``(H + 1, n, m)`` stacks over
        the work grid ``w``.

        One pass serves every column: ``tau`` and ``omega`` are built
        once, and each distinct renewal model is called once on its rows
        of the stacks.  The exponential column pass runs over every row
        first — its expressions (and hence the exponential rows' bits)
        are exactly a memoryless ``ErrorModel``'s — then the general-model rows
        are overwritten, so exponential rows are independent of which
        models share the batch.  One model covering every row takes the
        whole stacks, with no pass.
        """
        tau = (w + self.V) / self._speeds
        omega = w / self._speeds
        groups = self._model_groups
        if groups and groups[0][1] is None:
            return groups[0][0]._window_primitives(tau, omega)
        p = -np.expm1(-(self.lam_f * tau + self.lam_s * omega))
        m = _capped_exposure_cols(self.lam_f, self._lam_f_divisor, tau)
        for model, idx in groups:
            p[:, idx], m[:, idx] = model._window_primitives(tau[:, idx], omega[:, idx])
        return p, m

    def evaluate(
        self,
        work: ScalarOrArray,
        *,
        components: tuple[str, ...] = ("time", "energy"),
        max_attempts: int | None = None,
    ) -> ScheduleExpectation:
        """Batched :func:`repro.schedules.evaluator.evaluate_schedule`.

        ``work`` broadcasts against the ``(n, 1)`` parameter columns: a
        scalar evaluates every point at one pattern size (result shape
        ``(n,)``), a 1-D array of ``m`` sizes is a shared work axis
        (result shape ``(n, m)``), and an ``(n, 1)`` array evaluates one
        size per point.  ``max_attempts`` truncates the attempt series
        per row exactly as in the scalar evaluator (the bound must
        cover every row's head).
        """
        w = np.asarray(work, dtype=np.float64)
        if np.any(w <= 0):
            raise InvalidParameterError("work must be > 0")
        max_head = int(self.head_len.max(initial=0))
        if max_attempts is not None and (max_attempts < 1 or max_attempts < max_head):
            raise InvalidTruncationError(max_attempts, max_head)
        t, e, attempts, bound_t, bound_e = self._expectations(
            w, components=components, full=True, max_attempts=max_attempts
        )

        def out(a: FloatArray | None) -> FloatArray | None:
            return None if a is None else (a[:, 0] if w.ndim == 0 else a)

        return ScheduleExpectation(
            time=out(t),
            energy=out(e),
            attempts=out(attempts),
            truncated=max_attempts is not None,
            tail_bound_time=out(bound_t),
            tail_bound_energy=out(bound_e),
        )

    def _expectations(
        self, w: FloatArray, *, components: tuple[str, ...], full: bool,
        max_attempts: int | None = None,
    ) -> tuple[FloatArray | None, ...]:
        """The accumulation behind :meth:`evaluate` and the probes:
        ``(time, energy, attempts, tail_bound_time, tail_bound_energy)``.

        Only the wanted components are accumulated; ``full=False`` (the
        solver's probes) also skips the attempt count and the tail
        bounds, which are then ``None``.  The stacks hold ``H + 1``
        copies of the work grid, so a shared work axis is accumulated in
        blocks of at most :data:`_BLOCK_CELLS` stacked cells (a probe,
        one point per row, is always one block).
        """
        if w.ndim < 2:
            w = np.atleast_2d(w)
        points = w.shape[-1]
        width = max(1, _BLOCK_CELLS // (self._speeds.shape[0] * self.n))
        if points <= width:
            return self._accumulate(w, components, full, max_attempts)
        outs: list[FloatArray | None] = []
        for start in range(0, points, width):
            block = self._accumulate(w[..., start : start + width], components, full, max_attempts)
            if not outs:
                outs = [None if b is None else np.empty((*b.shape[:-1], points)) for b in block]
            for out, b in zip(outs, block):
                if out is not None:
                    out[..., start : start + width] = b
        return tuple(outs)

    def _accumulate(
        self, w: FloatArray, components: tuple[str, ...], full: bool,
        max_attempts: int | None,
    ) -> tuple[FloatArray | None, ...]:
        """One block of :meth:`_expectations`, in the per-column order
        of the scalar evaluator: ``C`` first, then each head column, the
        tail last.  The sums start from the ``(n, 1)`` column
        ``C + 0.0``, whose broadcast is the old ``C + zeros`` bit for bit.
        Only the truncated tail is silenced (``1/0`` and ``0/0`` are
        masked out before they happen); the probes' callers hold
        :data:`_PROBE_ERRSTATE`."""
        want_time = "time" in components
        want_energy = "energy" in components
        H = self._speeds.shape[0] - 1
        p, m = self._primitives(w)
        shape = p.shape[1:]
        pR = p * self.R
        unit_t = m + pR if want_time else None
        unit_e = m * self._powers + pR * self.p_io if want_energy else None
        # reach[j]: probability of reaching attempt j, the running product
        # of the head columns' failure probabilities (1 past a row's head).
        reach = np.empty(p.shape)
        reach[0] = 1.0
        np.multiply.accumulate(_masked(self._active, p[:H], 1.0), axis=0, out=reach[1:])

        t = self.C + 0.0 if want_time else None
        e = self.C * self.p_io + 0.0 if want_energy else None
        attempts = np.zeros(shape) if full else None
        head = reach[:H]
        if want_time:
            for x in _masked(self._active, head * unit_t[:H], 0.0):
                t = t + x
        if want_energy:
            for x in _masked(self._active, head * unit_e[:H], 0.0):
                e = e + x
        if full:
            for x in _masked(self._active, head, 0.0):
                attempts = attempts + x

        # Closed-form geometric tail (cf. the scalar evaluator: identical
        # formulas, whole grid per op).
        p_t, reach = p[H], reach[H]
        inv_gap = np.divide(1.0, 1.0 - p_t, out=np.full(p_t.shape, np.inf), where=p_t < 1.0)
        if max_attempts is None:
            geom = reach * inv_gap
            bound_t = np.zeros(shape) if want_time and full else None
            bound_e = np.zeros(shape) if want_energy and full else None
        else:
            n_tail = max_attempts - self.head_len
            with np.errstate(**_PROBE_ERRSTATE):
                decay = p_t**n_tail
                geom = np.where(p_t < 1.0, reach * (1.0 - decay) * inv_gap, np.inf)
                remainder = np.where(p_t < 1.0, reach * decay * inv_gap, np.inf)
            bound_t = remainder * unit_t[H] if want_time else None
            bound_e = remainder * unit_e[H] if want_energy else None
        if full:
            attempts = attempts + geom
        if want_time:
            t = t + geom * unit_t[H]
        if want_energy:
            e = e + geom * unit_e[H]
        return t, e, attempts, bound_t, bound_e

    # ------------------------------------------------------------------
    # Row-wise overheads (the solver's lockstep probes)
    # ------------------------------------------------------------------
    def _overhead(self, w: np.ndarray, component: str) -> np.ndarray:
        """Per-row overhead at per-row work points (``w`` and the result
        share shape ``(n,)``); non-finite values map to ``+inf`` as in
        the scalar minimiser.  The solver's lean probe: one component,
        no attempt count, no validation; callers hold
        :data:`_PROBE_ERRSTATE`."""
        t, e, *_ = self._expectations(w.reshape(-1, 1), components=(component,), full=False)
        vals = (t if component == "time" else e)[:, 0] / w
        return np.where(np.isfinite(vals), vals, np.inf)

    def _checked_overhead(self, w: np.ndarray, component: str) -> np.ndarray:
        """The public probe: validated, under its own
        :data:`_PROBE_ERRSTATE`."""
        w = np.asarray(w, dtype=np.float64)
        if np.any(w <= 0):
            raise InvalidParameterError("work must be > 0")
        with np.errstate(**_PROBE_ERRSTATE):
            return self._overhead(w, component)

    def time_overhead(self, w: np.ndarray) -> np.ndarray:
        """Expected time per work unit, one point per row."""
        return self._checked_overhead(w, "time")

    def energy_overhead(self, w: np.ndarray) -> np.ndarray:
        """Expected energy per work unit (mJ), one point per row."""
        return self._checked_overhead(w, "energy")


def _masked(active: np.ndarray | None, x: np.ndarray, fill: float) -> np.ndarray:
    """``x`` on the rows still in their head, ``fill`` elsewhere
    (``active is None``: every row is, and ``x`` passes through)."""
    return x if active is None else np.where(active, x, fill)


@dataclass(frozen=True)
class ScheduleGridSolution:
    """Constrained optima for every grid point (NaN = infeasible).

    All arrays have the grid's length.  ``rho_min`` is each point's
    smallest feasible bound (finite even for infeasible points — it is
    the diagnostic the scalar path attaches to
    :class:`~repro.exceptions.InfeasibleBoundError`).
    """

    work: np.ndarray
    energy_overhead: np.ndarray
    time_overhead: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    rho_min: np.ndarray
    feasible: np.ndarray

    def __len__(self) -> int:
        return self.work.shape[0]


def _lockstep_bisect(
    fn: Callable[[FloatArray], FloatArray],
    a: FloatArray,
    b: FloatArray,
    fa: FloatArray,
    *,
    iters: int = _BISECT_ITERS,
) -> FloatArray:
    """Elementwise bisection of ``fn``'s sign change on ``[a, b]``.

    All rows iterate together; each iteration is one batched ``fn``
    call.  Rows whose bracket is degenerate (``a == b``) simply stay
    put, so callers can pre-collapse rows that need no root find.

    ``iters`` is a cap: the step is a deterministic map of each row's
    ``(a, b, fa)``, so once an iteration leaves every row's state
    bitwise unchanged every later one would too, and the loop stops
    there with the result the full budget returns.  The states are
    compared as bit patterns, so NaN and signed zeros neither end the
    loop early nor keep it going.
    """
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        same = np.sign(fm) == np.sign(fa)
        a_next = np.where(same, mid, a)
        fa_next = np.where(same, fm, fa)
        b_next = np.where(same, b, mid)
        fixed = (
            np.array_equal(a_next.view(np.uint64), a.view(np.uint64))
            and np.array_equal(b_next.view(np.uint64), b.view(np.uint64))
            and np.array_equal(fa_next.view(np.uint64), fa.view(np.uint64))
        )
        a, b, fa = a_next, b_next, fa_next
        if fixed:
            break
    return 0.5 * (a + b)


def _lockstep_golden(
    fn: Callable[[FloatArray], FloatArray],
    a: FloatArray,
    b: FloatArray,
    *,
    iters: int = _GOLDEN_ITERS,
) -> tuple[FloatArray, FloatArray]:
    """Elementwise golden-section minimisation on ``[a, b]``.

    Returns ``(argmin, min)``.  The classic recurrence: the surviving
    interior probe of each row is carried into the next iteration, so
    after the two seed evaluations every iteration costs exactly one
    batched ``fn`` call (the per-row *new* probes gathered into one
    array).  The contraction budget leaves the bracket far tighter than
    the scalar solver's ``xatol``, so both paths land on the same
    interior optimum to optimiser precision.
    """
    d = _INVPHI * (b - a)
    c1, c2 = b - d, a + d  # lower/upper interior probes
    f1, f2 = fn(c1), fn(c2)
    for _ in range(iters - 1):
        keep_left = f1 < f2
        a = np.where(keep_left, a, c1)
        b = np.where(keep_left, c2, b)
        d = _INVPHI * (b - a)
        new_lo = b - d  # fresh lower probe (left rows)
        new_hi = a + d  # fresh upper probe (right rows)
        f_new = fn(np.where(keep_left, new_lo, new_hi))
        c1, c2 = (
            np.where(keep_left, new_lo, c2),
            np.where(keep_left, c1, new_hi),
        )
        f1, f2 = np.where(keep_left, f_new, f2), np.where(keep_left, f1, f_new)
    a = np.where(f1 < f2, a, c1)
    b = np.where(f1 < f2, c2, b)
    x = 0.5 * (a + b)
    return x, fn(x)


def _signature_matrix(grid: ScheduleGrid) -> tuple[np.ndarray, int]:
    """Per-row numeric signature matrix and its invariant-column count.

    Layout: ``[head_len, head (padding zeroed), tail, model_rank]`` —
    the *invariant* columns, equal along any sweep chain — followed by
    the numeric axes ``[lam_f, lam_s, C, V, R, kappa, idle, p_io]``.
    Distinct renewal models get distinct small-integer ranks (0 =
    exponential row), so two rows with equal matrix rows evaluate
    identically at every pattern size.
    """
    n = grid.n
    H = grid.head.shape[1]
    mask = np.arange(H)[None, :] < grid.head_len
    head = np.where(mask, grid.head, 0.0)
    rank = np.zeros((n, 1))
    if grid.models:
        ranks: dict[ErrorModel, int] = {}
        for i, model in grid.models:
            rank[i, 0] = ranks.setdefault(model, len(ranks) + 1)
    M = np.concatenate(
        [
            grid.head_len,
            head,
            grid.tail,
            rank,
            grid.lam_f,
            grid.lam_s,
            grid.C,
            grid.V,
            grid.R,
            grid.kappa,
            grid.idle,
            grid.p_io,
        ],
        axis=1,
    )
    return M, H + 3


def _min_time_overhead(
    grid: ScheduleGrid, opt: SolverOptions
) -> tuple[FloatArray, FloatArray]:
    """Each row's ``(w_star, rho_min)``: the pattern size minimising
    ``T(W)/W`` and that minimum, by a coarse scan on the shared
    log-spaced grid (one broadcast evaluation) plus a lockstep golden
    polish between the argmin's neighbours.  Callers hold
    :data:`_PROBE_ERRSTATE`."""
    w_grid = np.logspace(math.log10(opt.w_lo), math.log10(opt.w_hi), opt.coarse)
    t_grid = grid._expectations(w_grid, components=("time",), full=False)[0] / w_grid
    t_grid = np.where(np.isfinite(t_grid), t_grid, np.inf)
    k = np.argmin(t_grid, axis=1)
    left = w_grid[np.maximum(k - 1, 0)]
    right = w_grid[np.minimum(k + 1, opt.coarse - 1)]
    w_star, t_polish = _lockstep_golden(
        lambda w: grid._overhead(w, "time"), left, right, iters=opt.golden_iters
    )
    # Keep the better of grid/polish, as minimize_unimodal does.
    t_coarse = t_grid[np.arange(grid.n), k]
    use_polish = t_polish <= t_coarse
    return (
        np.where(use_polish, w_star, w_grid[k]),
        np.where(use_polish, t_polish, t_coarse),
    )


def solve_schedule_grid(
    grid: ScheduleGrid,
    rho: ScalarOrArray,
    *,
    options: SolverOptions | None = None,
) -> ScheduleGridSolution:
    """Constrained optimum of every grid point under its bound ``rho``.

    The batched analogue of :func:`repro.schedules.solver.solve_schedule`
    (same three stages, all in lockstep):

    1. **masked coarse scan** — the time overhead of every *distinct*
       row on the shared log-spaced work grid in one broadcast pass;
       per-row argmin + golden polish gives ``rho_min``, gathered back
       to every row that repeats it; rows with ``rho_min > rho`` are
       masked infeasible;
    2. **crossing brackets** — lockstep bisection for the two
       ``T(W)/W = rho`` crossings (the right bracket grows by lockstep
       doubling, as in the scalar path), stopped once no row moves;
    3. **masked energy argmin** — lockstep golden section of
       ``E(W)/W`` on each row's feasible interval, then the same
       interior/endpoint candidate rule as the scalar solver.

    ``rho`` may be a scalar or an array of per-point bounds.
    ``options=None`` runs with :data:`DEFAULT_SOLVER_OPTIONS` (the
    historical behaviour, bit for bit).
    """
    opt = DEFAULT_SOLVER_OPTIONS if options is None else options
    n = grid.n
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,)).astype(np.float64)
    if np.any(rho <= 0):
        raise InvalidParameterError("rho must be > 0")

    # One error state for every probe of the solve: the probes map
    # overflow and 0 * inf to +inf themselves.
    with np.errstate(**_PROBE_ERRSTATE):
        # Stage 1 does not depend on rho: run it once per distinct row
        # (a rho sweep repeats each row many times) and gather back.  Rows
        # evaluate independently of their batch, so the gather is exact.
        M, _ = _signature_matrix(grid)
        _, reps, inverse = np.unique(
            M.view(np.uint64), axis=0, return_index=True, return_inverse=True
        )
        if reps.size == n:
            w_star, rho_min = _min_time_overhead(grid, opt)
        else:
            w_star, rho_min = _min_time_overhead(grid.take(reps), opt)
            inverse = inverse.reshape(-1)
            w_star, rho_min = w_star[inverse], rho_min[inverse]
        feasible = rho_min <= rho

        def shifted(w: np.ndarray) -> np.ndarray:
            return grid._overhead(w, "time") - rho  # inf-safe: inf - rho = inf

        # Stage 2a: left crossing on [W_LO, w_star] (T/W decreasing there).
        lo = np.full(n, opt.w_lo)
        s_lo = shifted(lo)
        need_left = feasible & (s_lo > 0)
        a = np.where(need_left, lo, w_star)
        w1 = _lockstep_bisect(
            shifted, a, w_star, np.where(need_left, s_lo, -1.0), iters=opt.bisect_iters
        )
        w1 = np.where(need_left, w1, opt.w_lo)
        w1 = np.where(feasible, w1, np.nan)

        # Stage 2b: right crossing — lockstep doubling then bisection.
        hi = np.where(feasible, w_star, opt.w_lo)
        s_hi = shifted(hi)
        for _ in range(64):
            growing = feasible & (s_hi <= 0)
            if not growing.any():
                break
            hi = np.where(growing, hi * 2.0, hi)
            s_hi = np.where(growing, shifted(hi), s_hi)
        a2 = np.where(feasible, w_star, hi)
        w2 = _lockstep_bisect(
            shifted, a2, hi, np.where(feasible, -1.0, 1.0), iters=opt.bisect_iters
        )
        w2 = np.where(feasible, w2, np.nan)

        # Stage 3: energy minimisation on the feasible interval.  Collapse
        # infeasible rows to a harmless degenerate bracket, then mask.
        b_lo = np.where(feasible, w1, 1.0)
        b_hi = np.where(feasible, w2, 1.0)
        x_e, f_e = _lockstep_golden(
            lambda w: grid._overhead(w, "energy"), b_lo, b_hi, iters=opt.golden_iters
        )
        e1 = grid._overhead(b_lo, "energy")
        e2 = grid._overhead(b_hi, "energy")
        # Same candidate order as the scalar solver: interior, W1, W2 (the
        # argmin tie-breaks toward the interior optimum).
        cand_w = np.stack([x_e, b_lo, b_hi])
        cand_e = np.stack([f_e, e1, e2])
        j = np.argmin(cand_e, axis=0)
        rows = np.arange(n)
        work = cand_w[j, rows]
        energy = cand_e[j, rows]
        t_at = grid._overhead(np.where(feasible, work, 1.0), "time")

    nan = np.where(feasible, 0.0, np.nan)
    return ScheduleGridSolution(
        work=work + nan,
        energy_overhead=energy + nan,
        time_overhead=t_at + nan,
        w_lo=w1,
        w_hi=w2,
        rho_min=rho_min,
        feasible=feasible,
    )


# ----------------------------------------------------------------------
# Convenience front doors (one configuration, many schedules)
# ----------------------------------------------------------------------
def _as_points(
    cfg: "Configuration | str | Sequence[Configuration | str]",
    schedules: Sequence[SpeedSchedule | str],
    errors: "ErrorModelLike | Sequence[ErrorModelLike]",
) -> list[tuple[Configuration, SpeedSchedule, ErrorModelLike]]:
    from ..platforms.catalog import get_configuration

    def resolve(c: "Configuration | str") -> Configuration:
        return get_configuration(c) if isinstance(c, str) else c

    scheds = [as_schedule(s) for s in schedules]
    if any(s is None for s in scheds):
        raise InvalidParameterError("every grid point needs a schedule")
    cfgs = (
        [resolve(c) for c in cfg]
        if isinstance(cfg, (list, tuple))
        else [resolve(cfg)] * len(scheds)
    )
    errs = (
        list(errors)
        if isinstance(errors, (list, tuple))
        else [errors] * len(scheds)
    )
    if not len(cfgs) == len(scheds) == len(errs):
        raise InvalidParameterError(
            f"mismatched grid axes: {len(cfgs)} config(s), {len(scheds)} "
            f"schedule(s), {len(errs)} error model(s)"
        )
    return list(zip(cfgs, scheds, errs))


def evaluate_schedule_batch(
    cfg: "Configuration | str | Sequence[Configuration | str]",
    schedules: Sequence[SpeedSchedule | str],
    work: ScalarOrArray,
    *,
    errors: "ErrorModelLike | Sequence[ErrorModelLike]" = None,
    components: tuple[str, ...] = ("time", "energy"),
    max_attempts: int | None = None,
) -> ScheduleExpectation:
    """Expectations of many schedules over a shared work axis at once.

    ``cfg`` and ``errors`` may be single values (applied to every
    schedule — the sigma-axis case: one platform, many policies) or
    per-schedule sequences; each error entry is anything
    :func:`~repro.errors.models.as_error_model` accepts (an
    :class:`ErrorModel`, a ``CombinedErrors``, an arrival process, or
    a spec string such as ``"weibull:shape=0.7,mtbf=5e3"``).  ``work``
    broadcasts as in :meth:`ScheduleGrid.evaluate`: a 1-D array of
    ``m`` pattern sizes yields ``(len(schedules), m)`` result arrays.
    """
    grid = ScheduleGrid.from_points(_as_points(cfg, schedules, errors))
    return grid.evaluate(work, components=components, max_attempts=max_attempts)


def solve_schedule_batch(
    cfg: "Configuration | str | Sequence[Configuration | str]",
    schedules: Sequence[SpeedSchedule | str],
    rho: ScalarOrArray,
    *,
    errors: "ErrorModelLike | Sequence[ErrorModelLike]" = None,
) -> ScheduleGridSolution:
    """Constrained optima of many schedules in one vectorised pass.

    The front door for schedule-axis sweeps: equivalent to calling
    :func:`repro.schedules.solver.solve_schedule` per schedule, batched.
    ``rho`` may be shared or per-schedule.
    """
    grid = ScheduleGrid.from_points(_as_points(cfg, schedules, errors))
    return solve_schedule_grid(grid, rho)
