"""Vectorised Monte-Carlo simulation of pattern executions.

The simulator replays, sample by sample, exactly the stochastic process
the paper's expectations describe (Sections 2.2 and 5.1):

* an attempt at speed ``sigma`` executes for ``tau = (W+V)/sigma``
  seconds unless a fail-stop error interrupts it at ``t_f <= tau``
  (``t_f`` a fresh inter-arrival of the fail-stop source per attempt:
  recovery restarts the arrival pattern, the renewal semantics of
  :mod:`repro.errors.models`; ``Exp(lambda_f)`` in the paper);
* independently, a silent corruption occurs within the computation
  window with the silent source's CDF at ``W / sigma``
  (``1 - exp(-lambda_s W / sigma)`` in the paper); it is caught by the
  end-of-pattern verification, so the full ``tau`` is paid before the
  recovery;
* a fail-stop interruption pre-empts the attempt regardless of silent
  corruption (the paper's recursion branches on the fail-stop event
  first);
* every failed attempt pays a recovery ``R``; the final successful
  attempt pays the checkpoint ``C``.  Attempt speeds follow the run's
  :class:`~repro.schedules.base.SpeedSchedule` — the legacy
  ``(sigma1, sigma2)`` arguments are sugar for ``TwoSpeed(sigma1,
  sigma2)`` (first attempt at ``sigma1``, all re-executions at
  ``sigma2``), and any eventually-constant per-attempt policy replays
  the same way.

Energy accounting mirrors :mod:`repro.power.energy`: compute segments
(including the truncated one) draw ``Pidle + kappa sigma^3``; recovery
and checkpoint draw ``Pidle + Pio``.

The implementation is fully vectorised over samples: each loop
iteration advances *all* still-failing samples by one attempt, so the
cost is O(n x E[attempts]) NumPy operations with no Python-level
per-sample work — following the hpc-parallel guides (vectorise the
inner loop; operate in place on index subsets).  Per-attempt schedules
keep this property for free: every sample in re-execution round ``k``
is at attempt ``k``, so the attempt index selects one scalar speed per
round.
"""

from __future__ import annotations

import numpy as np

from ..errors.models import ErrorModel, ErrorModelLike, ExponentialArrivals, as_error_model
from ..exceptions import ConvergenceError, InvalidParameterError
from ..platforms.configuration import Configuration
from ..quantities import require_positive
from ..schedules.base import SpeedSchedule, TwoSpeed
from .outcomes import PatternBatch

__all__ = ["PatternSimulator"]

#: Hard cap on re-execution rounds.  The per-attempt success probability
#: for any sane configuration is >> 1e-3, so 100k rounds is unreachable
#: except for pathological parameters, where we fail loudly.
_MAX_ROUNDS = 100_000


class PatternSimulator:
    """Monte-Carlo executor of checkpointing patterns.

    Parameters
    ----------
    cfg:
        Platform/processor configuration (supplies ``C``, ``V``, ``R``
        and the power model).
    errors:
        Optional error model: an :class:`~repro.errors.models.ErrorModel`
        or anything :func:`~repro.errors.models.as_error_model` lifts to
        one (a ``CombinedErrors`` split, an arrival process, a spec
        string).  Each attempt draws a fresh inter-arrival through the
        model's ``sample_interarrivals``, the renewal semantics the
        analytical evaluator assumes; exponential and renewal families
        share this one sampler.  ``None`` (default) means silent errors
        only at the configuration's own rate — the model of Sections
        2-4.
    rng:
        NumPy random generator or integer seed.  Defaults to a fresh
        unseeded generator; pass a seed for reproducibility.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> sim = PatternSimulator(get_configuration("hera-xscale"), rng=42)
    >>> batch = sim.run(work=2764.0, sigma1=0.4, n=1000)
    >>> batch.size
    1000
    """

    def __init__(
        self,
        cfg: Configuration,
        errors: ErrorModelLike = None,
        rng: np.random.Generator | int | None = None,
    ):
        self.cfg = cfg
        self.errors: ErrorModel = as_error_model(errors) or ErrorModel(ExponentialArrivals(cfg.lam))
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)

    # ------------------------------------------------------------------
    def run(
        self,
        work: float,
        sigma1: float | None = None,
        sigma2: float | None = None,
        n: int = 10_000,
        *,
        schedule: SpeedSchedule | None = None,
    ) -> PatternBatch:
        """Simulate ``n`` independent pattern executions.

        Speeds come either from the legacy ``(sigma1, sigma2)`` pair
        (first attempt at ``sigma1``, re-executions at ``sigma2``,
        defaulting to ``sigma1``) or from an arbitrary per-attempt
        ``schedule`` — passing both is an error.  Returns a
        :class:`~repro.simulation.outcomes.PatternBatch` whose sample
        means converge (by construction) to the exact expectations of
        Propositions 1-5 and their schedule generalisations.
        """
        require_positive(work, "work")
        if schedule is not None:
            if sigma1 is not None or sigma2 is not None:
                raise InvalidParameterError(
                    "pass either schedule= or sigma1/sigma2, not both"
                )
        else:
            if sigma1 is None:
                raise InvalidParameterError("sigma1 is required without a schedule")
            require_positive(sigma1, "sigma1")
            if sigma2 is None:
                sigma2 = sigma1
            require_positive(sigma2, "sigma2")
            schedule = TwoSpeed(sigma1, sigma2)
        if n < 1:
            raise InvalidParameterError("n must be >= 1")

        cfg = self.cfg
        pm = cfg.power
        p_io = pm.io_total_power()
        V = cfg.verification_time
        R = cfg.recovery_time
        C = cfg.checkpoint_time

        # The fail-stop arrival is drawn first, then the silent indicator.
        fs_proc = self.errors.failstop_arrivals
        sil_proc = self.errors.silent_arrivals

        def draw(m: int, tau: float, omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # The window test is <= to match the model CDF's P(X <= t)
            # convention — immaterial for continuous families, but a
            # trace ECDF has atoms, and an arrival exactly at the
            # window's end must count as a failure on both sides.
            if fs_proc is not None:
                t_fail = fs_proc.sample_interarrivals(self.rng, m)
                failstop = t_fail <= tau
            else:
                t_fail = np.empty(m)
                failstop = np.zeros(m, dtype=bool)
            if sil_proc is not None:
                silent = self.rng.random(m) < sil_proc.failure_probability(omega)
            else:
                silent = np.zeros(m, dtype=bool)
            return t_fail, failstop, silent

        times = np.zeros(n)
        energies = np.zeros(n)
        attempts = np.zeros(n, dtype=np.int64)
        failstop_errors = np.zeros(n, dtype=np.int64)
        silent_errors = np.zeros(n, dtype=np.int64)

        active = np.arange(n)
        rounds = 0
        while active.size:
            rounds += 1
            if rounds > _MAX_ROUNDS:  # pragma: no cover - pathological only
                raise ConvergenceError(
                    f"patterns failed to complete within {_MAX_ROUNDS} attempts; "
                    "check that lambda * W / sigma is not enormous"
                )
            # Attempt index selects the speed: all active samples are in
            # the same round, so the schedule lookup stays scalar.
            speed = schedule.speed_for_attempt(rounds)
            m = active.size
            tau = (work + V) / speed
            omega = work / speed
            p_cpu = pm.compute_power(speed)

            t_fail, failstop, silent = draw(m, tau, omega)

            exec_time = np.where(failstop, t_fail, tau)
            times[active] += exec_time
            energies[active] += exec_time * p_cpu
            attempts[active] += 1

            failed = failstop | silent
            failstop_errors[active] += failstop
            # A silent corruption in a fail-stop-interrupted attempt is
            # never observed (the attempt is redone anyway): charge the
            # attempt to the fail-stop branch, as recursion (8) does.
            silent_errors[active] += silent & ~failstop

            failed_idx = active[failed]
            done_idx = active[~failed]
            times[failed_idx] += R
            energies[failed_idx] += R * p_io
            times[done_idx] += C
            energies[done_idx] += C * p_io

            active = failed_idx

        return PatternBatch(
            times=times,
            energies=energies,
            attempts=attempts,
            failstop_errors=failstop_errors,
            silent_errors=silent_errors,
        )

    # ------------------------------------------------------------------
    def spawn(self) -> "PatternSimulator":
        """An independent simulator with a child RNG stream.

        Use to fan simulations out over parameters without correlating
        their randomness (NumPy's ``spawn`` guarantees independence).
        """
        child = self.rng.spawn(1)[0]
        return PatternSimulator(self.cfg, self.errors, child)
