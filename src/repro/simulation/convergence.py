"""Adaptive Monte-Carlo: simulate until a target precision is reached.

Fixed-size batches either waste samples (easy regimes) or under-resolve
(heavy re-execution regimes).  :func:`simulate_until` grows the sample
geometrically until the relative half-width of the 95% confidence
interval of *both* the mean time and the mean energy drops below the
target, and reports the full trajectory for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors.models import ErrorModelLike
from ..exceptions import ConvergenceError, InvalidParameterError
from ..platforms.configuration import Configuration
from ..quantities import require_positive
from .engine import PatternSimulator
from .outcomes import BatchSummary, PatternBatch

__all__ = ["ConvergedEstimate", "simulate_until"]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ConvergedEstimate:
    """Result of an adaptive simulation run."""

    summary: BatchSummary
    target_precision: float
    achieved_precision: float
    rounds: int

    @property
    def n(self) -> int:
        """Total number of simulated patterns."""
        return self.summary.n

    @property
    def converged(self) -> bool:
        """True when the target precision was met."""
        return self.achieved_precision <= self.target_precision


def _precision(summary: BatchSummary) -> float:
    """Worst relative CI half-width across time and energy."""
    rel_t = _Z95 * summary.sem_time / summary.mean_time
    rel_e = _Z95 * summary.sem_energy / summary.mean_energy
    return max(rel_t, rel_e)


def simulate_until(
    cfg: Configuration,
    work: float,
    sigma1: float,
    sigma2: float | None = None,
    *,
    errors: ErrorModelLike = None,
    precision: float = 0.005,
    initial_n: int = 2_000,
    max_n: int = 2_000_000,
    rng: np.random.Generator | int | None = None,
) -> ConvergedEstimate:
    """Simulate pattern executions until the CI is tight enough.

    Parameters
    ----------
    precision:
        Target relative 95%-CI half-width (applies to both the mean
        time and the mean energy).  The default 0.5% resolves the
        paper-table values to ~2 significant digits of their overheads.
    initial_n, max_n:
        Starting batch size and hard sample cap; the batch doubles each
        round, so at most ``log2(max_n / initial_n)`` rounds run.

    Raises
    ------
    ConvergenceError
        If ``max_n`` samples do not reach the target (the estimate so
        far is attached to the exception message).

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> est = simulate_until(get_configuration("hera-xscale"), 2764.0, 0.4,
    ...                      precision=0.01, rng=5)
    >>> est.converged
    True
    """
    require_positive(precision, "precision")
    if initial_n < 2:
        raise InvalidParameterError("initial_n must be >= 2")
    sim = PatternSimulator(cfg, errors=errors, rng=rng)

    batches: list[PatternBatch] = []
    total = 0
    n_next = initial_n
    rounds = 0
    while True:
        rounds += 1
        batches.append(sim.run(work=work, sigma1=sigma1, sigma2=sigma2, n=n_next))
        total += n_next
        merged = PatternBatch(
            times=np.concatenate([b.times for b in batches]),
            energies=np.concatenate([b.energies for b in batches]),
            attempts=np.concatenate([b.attempts for b in batches]),
            failstop_errors=np.concatenate([b.failstop_errors for b in batches]),
            silent_errors=np.concatenate([b.silent_errors for b in batches]),
        )
        summary = merged.summary()
        achieved = _precision(summary)
        if achieved <= precision:
            return ConvergedEstimate(
                summary=summary,
                target_precision=precision,
                achieved_precision=achieved,
                rounds=rounds,
            )
        if total >= max_n:
            raise ConvergenceError(
                f"{total} samples reached precision {achieved:.2e}, "
                f"short of the target {precision:.2e}"
            )
        n_next = min(total, max_n - total)  # double, capped at the budget
