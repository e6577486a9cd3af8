"""Model-agreement estimators: does the simulator match the propositions?

The Monte-Carlo engine and the analytical expectations describe the same
stochastic process, so for any ``(W, sigma1, sigma2)`` the sample means
must match Propositions 1-5 within sampling noise.  This module wraps
that check: it simulates a batch, computes the exact expectations, and
reports standardised deviations (z-scores) for both time and energy.

These checks are the validation backbone of the substitution argument
in DESIGN.md (we replaced the authors' real platforms by a simulator —
this is the evidence the simulator is faithful to the model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import exact as silent_exact
from ..errors.models import ErrorModelLike
from ..exceptions import InvalidParameterError
from ..failstop import exact as combined_exact
from ..platforms.configuration import Configuration
from ..schedules.base import SpeedSchedule, TwoSpeed
from ..schedules.evaluator import evaluate_schedule
from .engine import PatternSimulator
from .outcomes import BatchSummary

__all__ = ["AgreementReport", "check_agreement"]


@dataclass(frozen=True)
class AgreementReport:
    """Monte-Carlo vs analytical comparison for one pattern setting.

    ``sigma1``/``sigma2`` are the first two attempt speeds; for runs
    driven by a general policy the full per-attempt map is carried in
    ``schedule`` (``None`` for legacy two-speed runs).
    """

    work: float
    sigma1: float
    sigma2: float
    n: int
    expected_time: float
    expected_energy: float
    summary: BatchSummary
    schedule: SpeedSchedule | None = None

    @property
    def time_zscore(self) -> float:
        """Standardised deviation of the sample mean time."""
        return self.summary.time_zscore(self.expected_time)

    @property
    def energy_zscore(self) -> float:
        """Standardised deviation of the sample mean energy."""
        return self.summary.energy_zscore(self.expected_energy)

    @property
    def max_abs_zscore(self) -> float:
        """The worse of the two deviations (agreement gate value)."""
        return max(abs(self.time_zscore), abs(self.energy_zscore))

    def agrees(self, z_threshold: float = 4.0) -> bool:
        """True when both means lie within ``z_threshold`` standard errors.

        The default 4-sigma gate gives a per-check false-alarm rate of
        ~6e-5, low enough to run hundreds of checks in CI without
        flaking while still catching any real model/simulator mismatch
        (a faithful pair agrees at z ~ 1).
        """
        return self.max_abs_zscore <= z_threshold


def check_agreement(
    cfg: Configuration,
    work: float,
    sigma1: float | None = None,
    sigma2: float | None = None,
    *,
    schedule: SpeedSchedule | None = None,
    errors: ErrorModelLike = None,
    n: int = 20_000,
    rng: np.random.Generator | int | None = None,
) -> AgreementReport:
    """Simulate a batch and compare against the exact expectations.

    Uses Propositions 2/3 when ``errors`` is ``None`` or silent-only,
    the combined closed forms otherwise, and the general schedule
    evaluator when a per-attempt ``schedule`` is given (exclusive with
    ``sigma1``/``sigma2``).  A non-memoryless model (Weibull/Gamma/trace
    arrivals) is validated against the schedule evaluator's renewal
    primitives — the exponential closed forms do not apply to it.
    """
    if schedule is not None:
        if sigma1 is not None or sigma2 is not None:
            raise InvalidParameterError(
                "pass either schedule= or sigma1/sigma2, not both"
            )
        sim = PatternSimulator(cfg, errors=errors, rng=rng)
        batch = sim.run(work=work, schedule=schedule, n=n)
        expectation = evaluate_schedule(cfg, schedule, work, errors=sim.errors)
        return AgreementReport(
            work=work,
            sigma1=schedule.speed_for_attempt(1),
            sigma2=schedule.speed_for_attempt(2),
            n=n,
            expected_time=float(expectation.time),
            expected_energy=float(expectation.energy),
            summary=batch.summary(),
            schedule=schedule,
        )
    if sigma1 is None:
        raise InvalidParameterError("sigma1 is required without a schedule")
    if sigma2 is None:
        sigma2 = sigma1
    sim = PatternSimulator(cfg, errors=errors, rng=rng)
    batch = sim.run(work=work, sigma1=sigma1, sigma2=sigma2, n=n)
    eff_errors = sim.errors
    if not eff_errors.is_memoryless:
        # The two-speed closed forms assume exponential arrivals, so the
        # expectation comes from the schedule evaluator's renewal
        # primitives instead.
        expectation = evaluate_schedule(
            cfg, TwoSpeed(sigma1, sigma2), work, errors=eff_errors
        )
        return AgreementReport(
            work=work,
            sigma1=sigma1,
            sigma2=sigma2,
            n=n,
            expected_time=float(expectation.time),
            expected_energy=float(expectation.energy),
            summary=batch.summary(),
        )
    combined = eff_errors.to_combined()
    if combined.failstop_fraction == 0.0:
        # Silent-only: Props 2/3 with the model's silent rate.
        cfg_eff = cfg.with_error_rate(combined.silent_rate)
        t_exp = silent_exact.expected_time(cfg_eff, work, sigma1, sigma2)
        e_exp = silent_exact.expected_energy(cfg_eff, work, sigma1, sigma2)
    else:
        t_exp = combined_exact.expected_time(cfg, combined, work, sigma1, sigma2)
        e_exp = combined_exact.expected_energy(cfg, combined, work, sigma1, sigma2)
    return AgreementReport(
        work=work,
        sigma1=sigma1,
        sigma2=sigma2,
        n=n,
        expected_time=t_exp,
        expected_energy=e_exp,
        summary=batch.summary(),
    )
