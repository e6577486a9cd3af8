"""The O(K^2) BiCrit solver (end of Section 3 of the paper).

The procedure is exactly the paper's:

1. for each speed pair ``(sigma_i, sigma_j)`` compute ``rho_{i,j}``
   (Eq. 6) and discard pairs with ``rho < rho_{i,j}``;
2. for each remaining pair compute ``Wopt`` (Eq. 4) and the energy
   overhead (Eq. 3);
3. return the pair minimising the energy overhead.

Ties are broken deterministically by enumeration order (``sigma1``
ascending, then ``sigma2`` ascending), which prefers lower speeds and,
for equal first speeds, lower re-execution speeds.
"""

from __future__ import annotations

from ..exceptions import InfeasibleBoundError
from ..platforms.configuration import Configuration
from ..quantities import require_positive
from . import exact
from .feasibility import min_performance_bound
from .firstorder import energy_overhead_fo, time_overhead_fo
from .optimum import optimal_work
from .solution import BiCritSolution, CandidateOutcome, PatternSolution

__all__ = ["evaluate_pair", "solve_bicrit"]


def _solve_bicrit_direct(
    cfg: Configuration,
    rho: float,
    *,
    speeds: tuple[float, ...] | None = None,
    sigma2_choices: tuple[float, ...] | None = None,
) -> BiCritSolution:
    """The O(K^2) enumeration itself (no registry indirection).

    This is the implementation behind the ``firstorder`` backend of
    :mod:`repro.api.backends`; call :func:`solve_bicrit` (or
    ``repro.Scenario(...).solve()``) instead unless you are writing a
    backend.
    """
    require_positive(rho, "rho")
    s1_set = cfg.speeds if speeds is None else tuple(speeds)
    s2_set = cfg.speeds if sigma2_choices is None else tuple(sigma2_choices)

    candidates: list[CandidateOutcome] = []
    best: PatternSolution | None = None
    for s1 in s1_set:
        for s2 in s2_set:
            outcome = evaluate_pair(cfg, s1, s2, rho)
            candidates.append(outcome)
            sol = outcome.solution
            if sol is not None and (best is None or sol.energy_overhead < best.energy_overhead):
                best = sol

    if best is None:
        rho_min = min(c.rho_min for c in candidates)
        raise InfeasibleBoundError(rho, rho_min)
    return BiCritSolution(rho=rho, best=best, candidates=tuple(candidates))


def evaluate_pair(
    cfg: Configuration, sigma1: float, sigma2: float, rho: float
) -> CandidateOutcome:
    """Evaluate one speed pair against the bound ``rho``.

    Returns a :class:`CandidateOutcome` whose ``solution`` is ``None``
    when the pair is infeasible.  Speeds need not belong to the DVFS set
    (useful for what-if studies); :func:`solve_bicrit` only enumerates
    catalog speeds.
    """
    require_positive(rho, "rho")
    rho_min = min_performance_bound(cfg, sigma1, sigma2)
    work = optimal_work(cfg, sigma1, sigma2, rho)
    if work is None:
        return CandidateOutcome(sigma1=sigma1, sigma2=sigma2, rho_min=rho_min, solution=None)
    sol = PatternSolution(
        sigma1=sigma1,
        sigma2=sigma2,
        work=work,
        energy_overhead=energy_overhead_fo(cfg, work, sigma1, sigma2),
        time_overhead=time_overhead_fo(cfg, work, sigma1, sigma2),
        energy_overhead_exact=exact.energy_overhead(cfg, work, sigma1, sigma2),
        time_overhead_exact=exact.time_overhead(cfg, work, sigma1, sigma2),
        rho_min=rho_min,
    )
    return CandidateOutcome(sigma1=sigma1, sigma2=sigma2, rho_min=rho_min, solution=sol)


def solve_bicrit(
    cfg: Configuration,
    rho: float,
    *,
    speeds: tuple[float, ...] | None = None,
    sigma2_choices: tuple[float, ...] | None = None,
) -> BiCritSolution:
    """Solve BiCrit for ``cfg`` under the performance bound ``rho``.

    .. note:: Legacy wrapper.  Delegates to a standalone, uncached
       solve of the ``firstorder`` backend of the :mod:`repro.api`
       registry (``Scenario(config=cfg, rho=rho).solve(cache=False)``):
       cache entries written by batch solves carry no candidates, and
       this function returns all of them.  Prefer the
       :class:`repro.Scenario` API in new code.

    Parameters
    ----------
    cfg:
        The platform/processor configuration.
    rho:
        Admissible time overhead per unit of work (e.g. 3 means the
        expected makespan may be at most three times the error-free
        full-speed makespan).
    speeds:
        Optional restriction of the first-speed choices (defaults to the
        processor's full DVFS set).
    sigma2_choices:
        Optional restriction of the re-execution-speed choices.  Passing
        ``sigma2_choices=(s,)`` per first speed is how the single-speed
        baseline is built (see :mod:`repro.core.singlespeed`).

    Returns
    -------
    BiCritSolution
        Winning pair + all candidate outcomes.

    Raises
    ------
    InfeasibleBoundError
        When no speed pair satisfies ``rho`` (with the minimum feasible
        bound attached for diagnostics).

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> sol = solve_bicrit(get_configuration("hera-xscale"), rho=3.0)
    >>> sol.best.speed_pair
    (0.4, 0.4)
    >>> round(sol.best.work)
    2764
    """
    from ..api.scenario import Scenario

    return Scenario(
        config=cfg,
        rho=rho,
        speeds=speeds,
        sigma2_choices=sigma2_choices,
    ).solve(backend="firstorder", cache=False).raw
