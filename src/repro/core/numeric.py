"""Numeric BiCrit on the *exact* expressions — Theorem-1 cross-check.

The paper optimises the first-order overheads because they admit the
closed form of Theorem 1.  This module solves the same constrained
problem directly on the exact Propositions 2/3:

1. minimise the exact time overhead ``T(W)/W`` over ``W > 0`` (it is
   coercive: ``C/W -> inf`` as ``W -> 0`` and the re-execution
   exponential dominates as ``W -> inf``, and unimodal in the paper's
   parameter ranges);
2. if the minimum exceeds ``rho`` the pair is infeasible; otherwise
   bracket the two boundary crossings ``T(W)/W = rho`` with Brent root
   finding to obtain the exact feasible interval ``[W1, W2]``;
3. minimise the exact energy overhead ``E(W)/W`` on ``[W1, W2]``.

The ablation bench (``benchmarks/bench_ablation.py``) quantifies the gap
between this exact optimum and the Theorem-1 closed form — it is far
below 1% in the paper's regimes because ``lambda * W = Theta(sqrt(lambda))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from ..exceptions import ConvergenceError
from ..platforms.configuration import Configuration
from . import exact

__all__ = ["ExactSolution", "minimize_unimodal", "exact_feasible_interval", "solve_pair_exact", "solve_bicrit_exact"]

#: Search window for pattern sizes (work units).  1e-3 to 1e12 covers
#: every physically meaningful pattern for the paper's parameter ranges
#: (MTBFs from ~1e2 s to ~1e6 s).
_W_LO = 1e-3
_W_HI = 1e12


@dataclass(frozen=True)
class ExactSolution:
    """Result of the exact numeric optimisation for one speed pair."""

    sigma1: float
    sigma2: float
    work: float
    energy_overhead: float
    time_overhead: float
    interval: tuple[float, float]


def minimize_unimodal(
    fn: Callable[[float], float], lo: float = _W_LO, hi: float = _W_HI, *, coarse: int = 200
) -> tuple[float, float]:
    """Minimise a coercive quasi-unimodal ``fn`` on ``[lo, hi]``.

    A coarse log-spaced scan locates the basin, then bounded Brent
    (``minimize_scalar``) polishes inside the bracketing neighbours.
    Returns ``(argmin, min)``.

    This two-phase scheme is robust to the plateau-then-blowup shape of
    the exact overheads (flat near the optimum, exponential far right)
    where a single Brent call from an arbitrary bracket can stall.
    """
    from scipy.optimize import minimize_scalar

    grid = np.logspace(math.log10(lo), math.log10(hi), coarse)
    vals = np.array([fn(w) for w in grid])
    if not np.all(np.isfinite(vals)):
        # Exponentials overflow for huge W; treat overflow as +inf.
        vals = np.where(np.isfinite(vals), vals, np.inf)
    k = int(np.argmin(vals))
    left = grid[max(k - 1, 0)]
    right = grid[min(k + 1, coarse - 1)]
    res = minimize_scalar(fn, bounds=(left, right), method="bounded", options={"xatol": 1e-10 * right})
    if not res.success:  # pragma: no cover - scipy bounded rarely fails
        raise ConvergenceError(f"bounded minimisation failed: {res.message}")
    # The polish can only see [left, right]; keep the better of grid/polish.
    if res.fun <= vals[k]:
        return float(res.x), float(res.fun)
    return float(grid[k]), float(vals[k])


def exact_feasible_interval(
    cfg: Configuration, sigma1: float, sigma2: float, rho: float
) -> tuple[float, float] | None:
    """The exact feasible interval ``{W : T(W)/W <= rho}``, or ``None``.

    Uses the unimodality of the exact time overhead: find its minimum,
    then bracket the ``rho`` crossings on each side with Brent.
    """
    from scipy.optimize import brentq

    def t_over(w: float) -> float:
        with np.errstate(over="ignore"):
            return float(exact.time_overhead(cfg, w, sigma1, sigma2))

    w_star, t_min = minimize_unimodal(t_over)
    if t_min > rho:
        return None

    def shifted(w: float) -> float:
        v = t_over(w) - rho
        return v if math.isfinite(v) else 1e300

    # Left crossing: T/W -> inf as W -> 0 via the C/W term.
    lo = _W_LO
    if shifted(lo) <= 0:
        w1 = lo
    else:
        w1 = float(brentq(shifted, lo, w_star, xtol=1e-9, rtol=1e-12))
    # Right crossing: the re-execution exponential always overtakes rho.
    hi = w_star
    while shifted(hi) <= 0:
        hi *= 2.0
        if hi > 1e15:  # pragma: no cover - unreachable for valid configs
            raise ConvergenceError("failed to bracket the right feasibility crossing")
    w2 = float(brentq(shifted, w_star, hi, xtol=1e-9, rtol=1e-12))
    return (w1, w2)


def solve_pair_exact(
    cfg: Configuration, sigma1: float, sigma2: float, rho: float
) -> ExactSolution | None:
    """Exact constrained optimum for one speed pair (``None`` = infeasible)."""
    from scipy.optimize import minimize_scalar

    interval = exact_feasible_interval(cfg, sigma1, sigma2, rho)
    if interval is None:
        return None
    w1, w2 = interval

    def e_over(w: float) -> float:
        with np.errstate(over="ignore"):
            return float(exact.energy_overhead(cfg, w, sigma1, sigma2))

    res = minimize_scalar(e_over, bounds=(w1, w2), method="bounded", options={"xatol": 1e-9 * max(w2, 1.0)})
    if not res.success:  # pragma: no cover
        raise ConvergenceError(f"bounded minimisation failed: {res.message}")
    # Candidates: interior optimum and both interval ends (the energy
    # overhead is convex here, but end-point checks make this airtight).
    cands = [(float(res.x), float(res.fun)), (w1, e_over(w1)), (w2, e_over(w2))]
    work, energy = min(cands, key=lambda p: p[1])
    return ExactSolution(
        sigma1=sigma1,
        sigma2=sigma2,
        work=work,
        energy_overhead=energy,
        time_overhead=float(exact.time_overhead(cfg, work, sigma1, sigma2)),
        interval=(w1, w2),
    )


def solve_bicrit_exact(cfg: Configuration, rho: float) -> ExactSolution:
    """Exact-numeric BiCrit over all speed pairs of ``cfg``.

    .. note:: Legacy wrapper.  Delegates to the ``exact`` backend of
       the :mod:`repro.api` registry via
       ``Scenario(..., backend="exact").solve()`` (which enumerates
       :func:`solve_pair_exact` over the speed grid); prefer the
       :class:`repro.Scenario` API in new code.

    Raises
    ------
    ConvergenceError
        Never in practice; propagated from the numeric layers.
    repro.exceptions.InfeasibleBoundError
        When no pair is feasible under the exact time overhead.
    """
    from ..api.scenario import Scenario

    return Scenario(config=cfg, rho=rho).solve(backend="exact").raw
