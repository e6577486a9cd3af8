"""Incremental (variational) solve tier: warm-started sweep solves.

Dense sweeps are overwhelmingly near-duplicates — neighbouring points
differ in exactly one parameter.  The cold solver
(:func:`solve_schedule_grid`) already shares the rho-independent part
of that work: its coarse scan and golden polish run once per distinct
row, and its bisections stop once no row moves.  What it still pays
per row are the two crossing bisections (capped at 96 steps) and the
72-step golden section.  This module shares that per-row work too,
the way variational execution shares work across similar program
configurations:

**Warm-started solves** (:func:`solve_schedule_grid_incremental`): rows
are sorted so that each detected *chain* (consecutive rows differing in
one numeric field, the sweep axis) is contiguous, every
``anchor_stride``-th chain position plus both endpoints is solved cold,
and the points in between are *seeded* by log-linear interpolation of
the anchors' solved crossings (``w_lo``/``w_hi``) and optimum.  Each
seed is then **validated in lockstep**, never trusted:

1. *crossing brackets* — the time-overhead curve ``T(W)/W - rho`` has
   exactly two roots on a feasible row, so sign checks at the seeded
   bracket edges (``> 0`` left of the bracket, ``< 0`` inside the
   feasible interval, ``> 0`` right of it) *prove* each bracket
   isolates its crossing; the roots are then polished by a lockstep
   Anderson-Björck (guarded regula falsi) iteration, both crossings
   sharing one batched evaluation per step, and each result is
   *certified* by a sign change across ``root * (1 ± probe_rtol)``;
2. *energy interval* — a three-point probe around the seeded optimum
   classifies the unimodal energy overhead: ``e(x) <= e(a), e(b)``
   proves the minimum lies in ``[a, b]``; a descent toward a crossing
   endpoint restricts the minimum to the narrow edge interval.  The
   surviving bracket is refined by a short golden section, then the
   cold path's interior/endpoint candidate rule is applied verbatim.

Any row that cannot be seeded (anchor infeasible — the feasibility
boundary case), fails a sign test, or misses a convergence certificate
**falls back to the cold path automatically**, solved exactly via
:func:`solve_schedule_grid` on the row subset.  Cold-solved rows
(anchors included) are byte-identical to a full cold solve because the
lockstep solver is itself batch-composition independent per row;
warm-validated rows agree with the cold path to ``<= 1e-9`` absolute on
the energy objective (the property suite pins this across every
schedule family x error model).

The ``schedule-grid-incremental`` backend of :mod:`repro.api.backends`
wraps this tier behind the registry; the sweep-aware planner
(:mod:`repro.api.sweep_planner`) orders ``ExecutionPlan`` shards so
chains stay contiguous across transport boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from ..exceptions import InvalidParameterError
from ..quantities import ScalarOrArray
from .vectorized import (
    DEFAULT_SOLVER_OPTIONS,
    ScheduleGrid,
    ScheduleGridSolution,
    SolverOptions,
    _lockstep_golden,
    _signature_matrix,
    solve_schedule_grid,
)

__all__ = [
    "IncrementalOptions",
    "IncrementalStats",
    "IncrementalSolution",
    "solve_schedule_grid_incremental",
]


# ----------------------------------------------------------------------
# Options / stats / solution containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IncrementalOptions:
    """Knobs of the warm-started sweep solver.

    ``anchor_stride`` trades anchor (cold) cost against seed quality:
    longer strides amortise better but interpolate over wider spans, so
    more rows fail validation and fall back cold.  ``anchor_span``
    additionally caps each anchor interval's *axis extent* (in the
    chain's dimensionless coordinate — log units on positive axes), so
    short dense chains (a 2-axis grid's rho runs) get mid-chain anchors
    instead of interpolating across their whole range.  The iteration
    budgets are far smaller than the cold path's because warm brackets
    start within ``bracket_factor`` of the answer and the
    Anderson-Björck iteration converges superlinearly; every crossing
    must still earn its sign-change certificate across
    ``root * (1 ± probe_rtol)`` or the row falls back cold, which is
    what keeps the 1e-9 energy pin honest.
    """

    anchor_stride: int = 256
    anchor_span: float = 0.12
    min_chain: int = 8
    bracket_factor: float = 1.3
    root_iters: int = 10
    golden_iters: int = 26
    probe_rtol: float = 1e-13
    solver: SolverOptions = DEFAULT_SOLVER_OPTIONS

    def __post_init__(self) -> None:
        if self.anchor_stride < 2:
            raise InvalidParameterError(
                f"anchor_stride must be >= 2, got {self.anchor_stride!r}"
            )
        if not (math.isfinite(self.anchor_span) and self.anchor_span > 0.0):
            raise InvalidParameterError(
                f"anchor_span must be finite and > 0, "
                f"got {self.anchor_span!r}"
            )
        if self.min_chain < 3:
            raise InvalidParameterError(
                f"min_chain must be >= 3 (shorter chains are all anchors), "
                f"got {self.min_chain!r}"
            )
        if not (math.isfinite(self.bracket_factor) and self.bracket_factor > 1.0):
            raise InvalidParameterError(
                f"bracket_factor must be finite and > 1, "
                f"got {self.bracket_factor!r}"
            )
        if self.root_iters < 4:
            raise InvalidParameterError(
                f"root_iters must be >= 4, got {self.root_iters!r}"
            )
        if self.golden_iters < 2:
            raise InvalidParameterError(
                f"golden_iters must be >= 2, got {self.golden_iters!r}"
            )
        if not (0.0 < self.probe_rtol < 1e-6):
            raise InvalidParameterError(
                f"probe_rtol must be in (0, 1e-6), got {self.probe_rtol!r}"
            )


@dataclass(frozen=True)
class IncrementalStats:
    """Where each row of an incremental solve was decided.

    ``anchors`` were solved cold by construction; ``boundary`` rows
    could not be seeded (an adjacent anchor was infeasible or had no
    usable interval — the feasibility-boundary case); ``fallback`` rows
    were seeded but failed a validation or convergence certificate.
    Both of the latter are solved by the exact cold path, so
    ``warm + anchors + boundary + fallback == n``.
    """

    n: int
    chains: int
    anchors: int
    warm: int
    boundary: int
    fallback: int

    @property
    def cold(self) -> int:
        """Rows solved by the cold path (anchors + fallbacks)."""
        return self.n - self.warm

    @property
    def warm_fraction(self) -> float:
        """Fraction of rows solved warm (0 for an empty grid)."""
        return self.warm / self.n if self.n else 0.0


@dataclass(frozen=True)
class IncrementalSolution(ScheduleGridSolution):
    """A :class:`ScheduleGridSolution` plus warm-solve provenance.

    ``warm`` flags the rows whose optimum came from a validated warm
    solve; on those rows ``rho_min`` is NaN (the warm path proves
    feasibility from the crossing signs without ever computing the
    minimal bound — cold-solved rows carry the usual finite value).
    """

    warm: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    stats: IncrementalStats = field(
        default_factory=lambda: IncrementalStats(0, 0, 0, 0, 0, 0)
    )


# ----------------------------------------------------------------------
# Chain detection
# ----------------------------------------------------------------------
def _detect_chains(
    M: np.ndarray, inv_k: int, rho: np.ndarray
) -> list[tuple[list[int], np.ndarray]]:
    """Sort rows and split them into sweep chains.

    Rows are ordered lexicographically by (invariants, numeric axes,
    rho) — rho last, so rho sweeps come out contiguous and monotone —
    then cut into maximal runs whose consecutive keys share all
    invariant columns and differ in at most one numeric field, the same
    field throughout the chain (its axis).  For chain purposes the two
    rate columns are reparameterised as (total rate, fail-stop
    fraction), so a total-rate sweep at fixed mix — which moves
    ``lam_f`` and ``lam_s`` together — still reads as a single axis.

    Returns ``(rows, coord)`` pairs: original row indices (their
    concatenation is a permutation of ``range(n)``) and a non-decreasing
    dimensionless *axis coordinate* per row — log of the varying field
    where it is positive, a range-scaled linear value otherwise, zeros
    for duplicate runs — used to cap anchor spans and to place seeds.
    """
    n = M.shape[0]
    lam_f = M[:, inv_k]
    lam_s = M[:, inv_k + 1]
    tot = lam_f + lam_s
    safe = np.where(tot > 0.0, tot, 1.0)
    # Rounded so the recovered mix compares equal across rates despite
    # last-ulp division noise (a miss only splits a chain, never breaks
    # correctness).
    frac = np.round(np.where(tot > 0.0, lam_f / safe, 0.0), 12)
    K = np.column_stack([M, rho])
    K[:, inv_k] = tot
    K[:, inv_k + 1] = frac
    order = np.lexsort(K.T[::-1])
    if n == 1:
        return [([int(order[0])], np.zeros(1))]
    Ks = K[order]
    eq = Ks[1:] == Ks[:-1]
    inv_eq = eq[:, :inv_k].all(axis=1)
    diff_num = ~eq[:, inv_k:]
    num_diff = diff_num.sum(axis=1)
    axis_id = np.argmax(diff_num, axis=1)
    linkable = (inv_eq & (num_diff <= 1)).tolist()
    num_diff_l = num_diff.tolist()
    axis_l = axis_id.tolist()
    order_l = order.tolist()

    chains: list[tuple[list[int], np.ndarray]] = []

    def close(start: int, end: int, axis: int) -> None:
        if axis < 0:
            coord = np.zeros(end + 1 - start)
        else:
            vals = Ks[start : end + 1, inv_k + axis]
            if np.all(vals > 0.0):
                coord = np.log(vals)
            else:
                scale = float(np.max(np.abs(vals)))
                coord = vals / scale if scale > 0.0 else np.zeros_like(vals)
        chains.append((order_l[start : end + 1], coord))

    start = 0
    axis = -1
    for i in range(n - 1):
        if linkable[i] and (
            num_diff_l[i] == 0 or axis < 0 or axis == axis_l[i]
        ):
            if num_diff_l[i] == 1 and axis < 0:
                axis = axis_l[i]
        else:
            close(start, i, axis)
            start = i + 1
            axis = -1
    close(start, n - 1, axis)
    return chains


# ----------------------------------------------------------------------
# Lockstep Anderson-Björck (guarded regula falsi)
# ----------------------------------------------------------------------
def _lockstep_anderson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise Anderson-Björck iteration on brackets ``[a, b]``
    with ``sign(fa) != sign(fb)``.

    Each step proposes the secant point (bisection midpoint where the
    secant is undefined or escapes the bracket) and scales the retained
    endpoint's function value by ``1 - f(x)/f(kept side)`` (floored at
    1/2) — the guard that keeps regula falsi superlinear on one-sided
    curves, where the plain and Illinois variants crawl.  Degenerate
    brackets (``a == b``) stay put.  Returns the final
    ``(a, b, fa, fb)``; callers certify the roots separately.
    """
    for _ in range(iters):
        denom = fb - fa
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - fb * (b - a) / denom
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        mid = 0.5 * (a + b)
        x = np.where(np.isfinite(x) & (x > lo) & (x < hi), x, mid)
        fx = fn(x)
        repl_b = np.sign(fx) == np.sign(fb)
        with np.errstate(divide="ignore", invalid="ignore"):
            m_b = 1.0 - fx / fb
            m_a = 1.0 - fx / fa
        m_b = np.where((m_b > 0) & np.isfinite(m_b), m_b, 0.5)
        m_a = np.where((m_a > 0) & np.isfinite(m_a), m_a, 0.5)
        fa = np.where(repl_b, fa * m_b, fx)
        a = np.where(repl_b, a, x)
        fb = np.where(repl_b, fx, fb * m_a)
        b = np.where(repl_b, x, b)
    return a, b, fa, fb


# ----------------------------------------------------------------------
# Warm solve (validated seeds only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WarmResult:
    ok: np.ndarray
    work: np.ndarray
    energy: np.ndarray
    time: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray


def _warm_solve(
    gw: ScheduleGrid,
    rho: np.ndarray,
    seed_w1: np.ndarray,
    seed_w2: np.ndarray,
    seed_wo: np.ndarray,
    opt: IncrementalOptions,
) -> _WarmResult:
    """Validate and refine seeded rows in lockstep (see module doc).

    ``ok`` marks rows whose every validation and convergence
    certificate passed; all other entries are meaningless and the
    caller must re-solve those rows cold.
    """
    m = rho.size
    f = opt.bracket_factor
    w_floor = opt.solver.w_lo
    ok = np.ones(m, dtype=bool)

    def shifted_multi(W: np.ndarray) -> np.ndarray:
        # Per-row multi-point probes: one batched evaluation for all
        # columns of W (shape (m, k)), inf-safe like time_overhead.
        with np.errstate(over="ignore", invalid="ignore"):
            t = gw.evaluate(W, components=("time",)).time / W
        return np.where(np.isfinite(t), t, np.inf) - rho[:, None]

    def energy_multi(W: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            e = gw.evaluate(W, components=("energy",)).energy / W
        return np.where(np.isfinite(e), e, np.inf)

    # --- Stage 1: bracket sign validation (one 4-column evaluation).
    l1 = np.maximum(seed_w1 / f, w_floor)
    r1 = seed_w1 * f
    l2 = seed_w2 / f
    r2 = seed_w2 * f
    S = shifted_multi(np.stack([l1, r1, l2, r2], axis=1))
    s_l1, s_r1, s_l2, s_r2 = S[:, 0], S[:, 1], S[:, 2], S[:, 3]
    # The cold rule "feasible at the window edge => w1 = w_lo" applies
    # when the clamped left probe *is* the window edge.
    left_edge = (l1 <= w_floor) & (s_l1 <= 0.0)
    # T/W - rho has exactly two roots w1 < w2 on a feasible row, so
    # these sign patterns prove l1 < w1 < r1 < w2 and w1 < l2 < w2 < r2.
    left_bracket = (s_l1 > 0.0) & (s_r1 < 0.0)
    right_bracket = (s_l2 < 0.0) & (s_r2 > 0.0)
    ok &= (left_bracket | left_edge) & right_bracket

    # --- Stage 2: Anderson-Björck refinement, both crossings per call,
    # then a sign-change certificate across root * (1 ± probe_rtol).
    bad = ~ok
    edge = left_edge & ok
    A = np.stack([np.where(edge, w_floor, l1), l2], axis=1)
    B = np.stack([np.where(edge, w_floor, r1), r2], axis=1)
    FA = np.stack([np.where(edge, 1.0, s_l1), s_l2], axis=1)
    FB = np.stack([np.where(edge, -1.0, s_r1), s_r2], axis=1)
    A[bad] = 1.0
    B[bad] = 1.0
    FA[bad] = 1.0
    FB[bad] = -1.0
    A, B, FA, FB = _lockstep_anderson(
        shifted_multi, A, B, FA, FB, opt.root_iters
    )
    root = np.where(np.abs(FA) <= np.abs(FB), A, B)
    W1 = np.where(edge, w_floor, root[:, 0])
    W2 = root[:, 1]
    d = opt.probe_rtol
    P = np.stack(
        [W1 * (1.0 - d), W1 * (1.0 + d), W2 * (1.0 - d), W2 * (1.0 + d)],
        axis=1,
    )
    SP = shifted_multi(np.where(ok[:, None], P, 1.0))
    # f decreases through w1 and increases through w2, so these signs
    # prove each crossing lies within probe_rtol of its root.
    conv_left = edge | ((SP[:, 0] >= 0.0) & (SP[:, 1] <= 0.0))
    conv_right = (SP[:, 2] <= 0.0) & (SP[:, 3] >= 0.0)
    ok &= conv_left & conv_right

    # --- Stage 3: energy-interval classification (one 5-column eval).
    x_seed = np.minimum(np.maximum(seed_wo, W1), W2)
    a3 = np.maximum(W1, x_seed / f)
    b3 = np.minimum(W2, x_seed * f)
    P = np.stack([a3, x_seed, b3, W1, W2], axis=1)
    E = energy_multi(np.where(ok[:, None], P, 1.0))
    e_a, e_x, e_b, e_w1, e_w2 = (E[:, j] for j in range(5))
    # Unimodality: an interior low point proves the minimum is inside
    # [a3, b3]; a descent toward an endpoint restricts it to the edge
    # interval — but only a *narrow* edge interval keeps the short
    # golden budget honest, so wide ones fall back cold.
    interior = (e_x <= e_a) & (e_x <= e_b)
    down_left = (e_a < e_x) & (e_b >= e_x)
    down_right = (e_b < e_x) & (e_a >= e_x)
    left_ok = down_left & (a3 <= W1 * (1.0 + 1e-12))
    right_ok = down_right & (b3 >= W2 * (1.0 - 1e-12))
    ok &= interior | left_ok | right_ok

    # --- Stage 4: short golden section + the cold candidate rule.
    A4 = np.where(interior, a3, np.where(left_ok, W1, x_seed))
    B4 = np.where(interior, b3, np.where(left_ok, x_seed, W2))
    A4 = np.where(ok, A4, 1.0)
    B4 = np.where(ok, B4, 1.0)
    x_e, f_e = _lockstep_golden(
        gw.energy_overhead, A4, B4, iters=opt.golden_iters
    )
    cand_w = np.stack([x_e, W1, W2])
    cand_e = np.stack([f_e, e_w1, e_w2])
    j = np.argmin(cand_e, axis=0)
    cols = np.arange(m)
    work = cand_w[j, cols]
    energy = cand_e[j, cols]
    t_at = gw.time_overhead(np.where(ok, work, 1.0))
    return _WarmResult(
        ok=ok, work=work, energy=energy, time=t_at, w_lo=W1, w_hi=W2
    )


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def solve_schedule_grid_incremental(
    grid: ScheduleGrid,
    rho: ScalarOrArray,
    *,
    options: IncrementalOptions | None = None,
) -> IncrementalSolution:
    """Constrained optima of every grid point, warm-started along sweeps.

    Drop-in for :func:`solve_schedule_grid` on sweep-shaped grids:
    rows are chained along their detected sweep axes, every
    ``anchor_stride``-th chain position is solved cold, and the rows in
    between run the validated warm path (falling back cold whenever a
    check fails).  Row order of the result matches the input; the
    attached :class:`IncrementalStats` says how each row was decided.
    """
    opt = IncrementalOptions() if options is None else options
    n = grid.n
    rho_arr = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,)).astype(
        np.float64
    )
    if np.any(rho_arr <= 0):
        raise InvalidParameterError("rho must be > 0")

    M, inv_k = _signature_matrix(grid)
    chains = _detect_chains(M, inv_k, rho_arr)

    # Anchor layout: endpoints + every anchor_stride-th chain position;
    # seeded rows record their bracketing anchors (as anchor-array
    # positions) and interpolation parameter.
    anchors: list[int] = []
    seed_rows: list[int] = []
    seed_ka: list[int] = []
    seed_kb: list[int] = []
    seed_t: list[float] = []
    for chain, coord in chains:
        length = len(chain)
        if length < opt.min_chain:
            anchors.extend(chain)
            continue
        # Greedy marks: each next anchor is the furthest chain position
        # within both the index stride and the axis-span cap (coord is
        # non-decreasing, so searchsorted finds the span boundary).
        marks = [0]
        pos = 0
        while pos < length - 1:
            nxt = (
                int(
                    np.searchsorted(
                        coord, coord[pos] + opt.anchor_span, side="right"
                    )
                )
                - 1
            )
            nxt = min(nxt, pos + opt.anchor_stride, length - 1)
            nxt = max(nxt, pos + 1)
            marks.append(nxt)
            pos = nxt
        base = len(anchors)
        anchors.extend(chain[mk] for mk in marks)
        for mi in range(len(marks) - 1):
            pa, pb = marks[mi], marks[mi + 1]
            span = pb - pa
            if span > 1:
                cspan = coord[pb] - coord[pa]
                seed_rows.extend(chain[pa + 1 : pb])
                seed_ka.extend([base + mi] * (span - 1))
                seed_kb.extend([base + mi + 1] * (span - 1))
                # Seeds sit at their axis coordinate within the
                # interval (index fraction on duplicate runs), so the
                # log-linear lerp tracks the axis, not the row count.
                seed_t.extend(
                    (coord[p] - coord[pa]) / cspan
                    if cspan > 0.0
                    else (p - pa) / span
                    for p in range(pa + 1, pb)
                )

    anchor_idx = np.asarray(anchors, dtype=np.intp)
    asol = solve_schedule_grid(
        grid.take(anchor_idx), rho_arr[anchor_idx], options=opt.solver
    )

    work = np.full(n, np.nan)
    energy = np.full(n, np.nan)
    t_over = np.full(n, np.nan)
    w_lo = np.full(n, np.nan)
    w_hi = np.full(n, np.nan)
    rho_min = np.full(n, np.nan)
    feasible = np.zeros(n, dtype=bool)
    warm = np.zeros(n, dtype=bool)

    def scatter(idx: np.ndarray, sol: ScheduleGridSolution) -> None:
        work[idx] = sol.work
        energy[idx] = sol.energy_overhead
        t_over[idx] = sol.time_overhead
        w_lo[idx] = sol.w_lo
        w_hi[idx] = sol.w_hi
        rho_min[idx] = sol.rho_min
        feasible[idx] = sol.feasible

    scatter(anchor_idx, asol)

    # Seed the in-between rows from their bracketing anchors
    # (log-linear interpolation of crossings and optimum).
    boundary = 0
    fallback = 0
    cold_list: list[np.ndarray] = []
    if seed_rows:
        rows_s = np.asarray(seed_rows, dtype=np.intp)
        ka = np.asarray(seed_ka, dtype=np.intp)
        kb = np.asarray(seed_kb, dtype=np.intp)
        tt = np.asarray(seed_t)
        good = asol.feasible[ka] & asol.feasible[kb]

        def lerp(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            va, vb = arr[ka], arr[kb]
            usable = (
                np.isfinite(va) & np.isfinite(vb) & (va > 0.0) & (vb > 0.0)
            )
            va = np.where(usable, va, 1.0)
            vb = np.where(usable, vb, 1.0)
            return np.exp((1.0 - tt) * np.log(va) + tt * np.log(vb)), usable

        v1, u1 = lerp(asol.w_lo)
        v2, u2 = lerp(asol.w_hi)
        vo, u3 = lerp(asol.work)
        good &= u1 & u2 & u3
        boundary = int((~good).sum())
        cold_list.append(rows_s[~good])

        if good.any():
            rows_w = rows_s[good]
            res = _warm_solve(
                grid.take(rows_w),
                rho_arr[rows_w],
                v1[good],
                v2[good],
                vo[good],
                opt,
            )
            hit = rows_w[res.ok]
            work[hit] = res.work[res.ok]
            energy[hit] = res.energy[res.ok]
            t_over[hit] = res.time[res.ok]
            w_lo[hit] = res.w_lo[res.ok]
            w_hi[hit] = res.w_hi[res.ok]
            feasible[hit] = True
            warm[hit] = True
            missed = rows_w[~res.ok]
            fallback = int(missed.size)
            cold_list.append(missed)

    cold_rows = (
        np.concatenate(cold_list) if cold_list else np.zeros(0, dtype=np.intp)
    )
    if cold_rows.size:
        cidx = np.sort(cold_rows)
        csol = solve_schedule_grid(
            grid.take(cidx), rho_arr[cidx], options=opt.solver
        )
        scatter(cidx, csol)

    stats = IncrementalStats(
        n=n,
        chains=len(chains),
        anchors=len(anchors),
        warm=int(warm.sum()),
        boundary=boundary,
        fallback=fallback,
    )
    return IncrementalSolution(
        work=work,
        energy_overhead=energy,
        time_overhead=t_over,
        w_lo=w_lo,
        w_hi=w_hi,
        rho_min=rho_min,
        feasible=feasible,
        warm=warm,
        stats=stats,
    )
