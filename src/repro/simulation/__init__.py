"""Monte-Carlo simulation substrate: pattern engine, application runs, estimators."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".engine": ("PatternSimulator",),
    ".outcomes": ("PatternBatch", "BatchSummary"),
    ".application": ("ApplicationSimulator", "ApplicationResult", "EventKind", "TraceEvent"),
    ".estimators": ("AgreementReport", "check_agreement"),
    ".convergence": ("ConvergedEstimate", "simulate_until"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .application import ApplicationResult, ApplicationSimulator, EventKind, TraceEvent
    from .convergence import ConvergedEstimate, simulate_until
    from .engine import PatternSimulator
    from .estimators import AgreementReport, check_agreement
    from .outcomes import BatchSummary, PatternBatch
