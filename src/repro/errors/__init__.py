"""Error-process substrate: exponential arrivals, the fail-stop/silent
split, and the pluggable renewal arrival-process models."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".exponential": ("ExponentialErrors",),
    ".combined": ("CombinedErrors",),
    ".models": (
        "ArrivalProcess", "ExponentialArrivals", "WeibullArrivals", "GammaArrivals",
        "TraceArrivals", "ErrorModel", "parse_error_model", "error_model_from_dict",
        "error_model_kinds", "as_error_model", "collapse_memoryless", "require_memoryless",
    ),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .combined import CombinedErrors
    from .exponential import ExponentialErrors
    from .models import (
        ArrivalProcess, ErrorModel, ExponentialArrivals, GammaArrivals, TraceArrivals,
        WeibullArrivals, as_error_model, collapse_memoryless, error_model_from_dict,
        error_model_kinds, parse_error_model, require_memoryless,
    )
