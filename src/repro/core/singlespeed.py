"""Single-speed baseline: the paper's one-speed comparator.

Every figure of the paper overlays the two-speed optimum with the best
solution constrained to ``sigma1 = sigma2`` (the ``Wopt(sigma, sigma)``
and ``E(Wopt, sigma, sigma)/Wopt`` dotted curves).  This module solves
that restricted problem with the same Theorem-1 machinery — the model is
identical, the candidate set is just the diagonal of the speed-pair
grid — so any improvement of the full solver over this baseline is
attributable purely to decoupling the re-execution speed.
"""

from __future__ import annotations

from ..exceptions import InfeasibleBoundError
from ..platforms.configuration import Configuration
from ..quantities import require_positive
from .solution import BiCritSolution, CandidateOutcome, PatternSolution
from .solver import evaluate_pair

__all__ = ["solve_single_speed", "evaluate_single_speed"]


def evaluate_single_speed(
    cfg: Configuration, sigma: float, rho: float
) -> CandidateOutcome:
    """Evaluate one diagonal candidate ``(sigma, sigma)``."""
    return evaluate_pair(cfg, sigma, sigma, rho)


def _solve_single_speed_direct(
    cfg: Configuration,
    rho: float,
    *,
    speeds: tuple[float, ...] | None = None,
) -> BiCritSolution:
    """The diagonal enumeration itself (no registry indirection).

    Implementation behind the ``single-speed`` mode of the
    :mod:`repro.api` backends; call :func:`solve_single_speed` (or
    ``repro.Scenario(..., mode="single-speed").solve()``) instead
    unless you are writing a backend.
    """
    require_positive(rho, "rho")
    s_set = cfg.speeds if speeds is None else tuple(speeds)

    candidates: list[CandidateOutcome] = []
    best: PatternSolution | None = None
    for s in s_set:
        outcome = evaluate_single_speed(cfg, s, rho)
        candidates.append(outcome)
        sol = outcome.solution
        if sol is not None and (best is None or sol.energy_overhead < best.energy_overhead):
            best = sol

    if best is None:
        rho_min = min(c.rho_min for c in candidates)
        raise InfeasibleBoundError(rho, rho_min)
    return BiCritSolution(rho=rho, best=best, candidates=tuple(candidates))


def solve_single_speed(
    cfg: Configuration,
    rho: float,
    *,
    speeds: tuple[float, ...] | None = None,
) -> BiCritSolution:
    """Solve BiCrit restricted to a single execution speed.

    Same contract as :func:`repro.core.solver.solve_bicrit`, but the
    candidate set is the diagonal ``{(sigma, sigma) : sigma in S}``.

    .. note:: Legacy wrapper.  Delegates to a standalone, uncached
       solve of the ``firstorder`` backend of the :mod:`repro.api`
       registry (``Scenario(..., mode="single-speed").solve(cache=False)``),
       so all candidates come back even after a batch solve cached the
       point; prefer the :class:`repro.Scenario` API in new code.

    Raises
    ------
    InfeasibleBoundError
        When no single speed satisfies ``rho``.  Note a bound can be
        feasible for the two-speed solver yet infeasible here only in
        contrived cases (Eq. 6 depends on ``sigma_j`` through the
        ``sqrt(lambda)`` and ``lambda`` terms), so in the paper's
        parameter ranges the two solvers share feasibility thresholds
        for each ``sigma1``.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> sol = solve_single_speed(get_configuration("hera-xscale"), rho=3.0)
    >>> sol.best.sigma1 == sol.best.sigma2
    True
    """
    from ..api.scenario import Scenario

    return Scenario(
        config=cfg, rho=rho, mode="single-speed", speeds=speeds
    ).solve(backend="firstorder", cache=False).raw
