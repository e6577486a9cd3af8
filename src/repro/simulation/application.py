"""Full-application simulation with an event trace.

The paper treats a single pattern in expectation and multiplies by
``W_base / W`` (Section 2.3).  This module simulates the *whole*
divisible-load application pattern by pattern, producing the event
timeline of Figure 1: execution segments, fail-stop interruptions,
silent-error detections at verifications, recoveries and checkpoints.

Useful for (a) demonstrating the execution model concretely (the
Figure-1 scenarios appear verbatim in the trace), and (b) validating the
``T_total ~ (T(W)/W) * W_base`` extrapolation on finite applications.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors.models import ErrorModel, ErrorModelLike, ExponentialArrivals, as_error_model
from ..exceptions import ConvergenceError
from ..platforms.configuration import Configuration
from ..quantities import require_positive

__all__ = ["EventKind", "TraceEvent", "ApplicationResult", "ApplicationSimulator"]

_MAX_ATTEMPTS_PER_PATTERN = 100_000


class EventKind(enum.Enum):
    """Kinds of timeline events (the segments of Figure 1)."""

    EXECUTE = "execute"          # a full W/sigma computation segment
    PARTIAL_EXECUTE = "partial"  # computation cut short by a fail-stop error
    VERIFY = "verify"            # the end-of-pattern verification
    SILENT_DETECTED = "silent"   # verification failed: silent error caught
    FAILSTOP = "failstop"        # fail-stop interruption (zero duration marker)
    RECOVER = "recover"          # rollback to the last checkpoint
    CHECKPOINT = "checkpoint"    # verified checkpoint committed


@dataclass(frozen=True)
class TraceEvent:
    """One timeline segment.

    ``speed`` is the execution speed for CPU segments and ``0.0`` for
    I/O segments and markers; markers (FAILSTOP / SILENT_DETECTED) have
    zero duration.
    """

    kind: EventKind
    start: float
    duration: float
    speed: float
    pattern_index: int
    attempt: int

    @property
    def end(self) -> float:
        """``start + duration``."""
        return self.start + self.duration


@dataclass(frozen=True)
class ApplicationResult:
    """Outcome of one full application run."""

    total_time: float
    total_energy: float
    num_patterns: int
    num_failstop: int
    num_silent: int
    events: tuple[TraceEvent, ...] = field(repr=False)

    @property
    def num_errors(self) -> int:
        """Total errors suffered across the run."""
        return self.num_failstop + self.num_silent

    def events_of(self, kind: EventKind) -> tuple[TraceEvent, ...]:
        """All events of one kind, in timeline order."""
        return tuple(e for e in self.events if e.kind is kind)


class ApplicationSimulator:
    """Simulate a divisible-load application of ``total_work`` work units.

    The work is split into ``ceil(total_work / work)`` patterns; the last
    pattern may be smaller.  Each pattern follows the Section-2.2
    execution model (first attempt at ``sigma1``, re-executions at
    ``sigma2``).  ``errors`` is lifted as in
    :class:`~repro.simulation.engine.PatternSimulator` (``None``:
    silent errors at the configuration's own rate), and every attempt
    draws fresh inter-arrivals from the model, exponential or renewal.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> sim = ApplicationSimulator(get_configuration("hera-xscale"), rng=7)
    >>> res = sim.run(total_work=20_000.0, work=2764.0, sigma1=0.4)
    >>> res.num_patterns
    8
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
        total_work: float,
        work: float,
        sigma1: float,
        sigma2: float | None = None,
        *,
        record_events: bool = True,
    ) -> ApplicationResult:
        """Run the application to completion and return the result.

        Set ``record_events=False`` for long runs where only the totals
        matter (the trace can dominate memory for millions of patterns).
        """
        require_positive(total_work, "total_work")
        require_positive(work, "work")
        require_positive(sigma1, "sigma1")
        if sigma2 is None:
            sigma2 = sigma1
        require_positive(sigma2, "sigma2")

        cfg = self.cfg
        # The silent draw happens only on attempts a fail-stop error did
        # not pre-empt.  The fail-stop sampler returns the interruption
        # time, or +inf when the attempt's window survives (<= window,
        # as in PatternSimulator, to match the CDF's P(X <= t) at trace
        # atoms).
        fs_proc = self.errors.failstop_arrivals
        sil_proc = self.errors.silent_arrivals

        def sample_fail(window: float) -> float:
            if fs_proc is None:
                return math.inf
            t_fail = float(fs_proc.sample_interarrivals(self.rng, 1)[0])
            return t_fail if t_fail <= window else math.inf

        def sample_silent(exec_span: float) -> bool:
            return sil_proc is not None and self.rng.random() < float(
                sil_proc.failure_probability(exec_span)
            )

        pm = cfg.power
        p_io = pm.io_total_power()
        V, R, C = cfg.verification_time, cfg.recovery_time, cfg.checkpoint_time

        num_patterns = math.ceil(total_work / work)
        t = 0.0
        energy = 0.0
        n_failstop = 0
        n_silent = 0
        events: list[TraceEvent] = []

        def emit(kind: EventKind, duration: float, speed: float, p: int, a: int) -> None:
            nonlocal t, energy
            if record_events:
                events.append(
                    TraceEvent(kind=kind, start=t, duration=duration, speed=speed,
                               pattern_index=p, attempt=a)
                )
            t += duration
            if kind in (EventKind.EXECUTE, EventKind.PARTIAL_EXECUTE, EventKind.VERIFY):
                energy += duration * pm.compute_power(speed)
            elif kind in (EventKind.RECOVER, EventKind.CHECKPOINT):
                energy += duration * p_io

        for p in range(num_patterns):
            w = min(work, total_work - p * work)
            attempt = 0
            while True:
                attempt += 1
                if attempt > _MAX_ATTEMPTS_PER_PATTERN:  # pragma: no cover
                    raise ConvergenceError(
                        f"pattern {p} failed to complete within "
                        f"{_MAX_ATTEMPTS_PER_PATTERN} attempts"
                    )
                speed = sigma1 if attempt == 1 else sigma2
                exec_span = w / speed
                verify_span = V / speed
                window = exec_span + verify_span

                t_fail = sample_fail(window)
                if math.isfinite(t_fail):
                    # Fail-stop interruption mid-computation or mid-verify.
                    n_failstop += 1
                    emit(EventKind.PARTIAL_EXECUTE, t_fail, speed, p, attempt)
                    emit(EventKind.FAILSTOP, 0.0, 0.0, p, attempt)
                    emit(EventKind.RECOVER, R, 0.0, p, attempt)
                    continue

                silent = sample_silent(exec_span)
                emit(EventKind.EXECUTE, exec_span, speed, p, attempt)
                emit(EventKind.VERIFY, verify_span, speed, p, attempt)
                if silent:
                    n_silent += 1
                    emit(EventKind.SILENT_DETECTED, 0.0, 0.0, p, attempt)
                    emit(EventKind.RECOVER, R, 0.0, p, attempt)
                    continue
                emit(EventKind.CHECKPOINT, C, 0.0, p, attempt)
                break

        return ApplicationResult(
            total_time=t,
            total_energy=energy,
            num_patterns=num_patterns,
            num_failstop=n_failstop,
            num_silent=n_silent,
            events=tuple(events),
        )
