"""Error-process substrate: the pluggable renewal arrival-process models,
their fail-stop/silent split (:class:`ErrorModel`), and the Section-5
parameter object :class:`CombinedErrors`."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".combined": ("CombinedErrors",),
    ".models": (
        "ArrivalProcess", "ExponentialArrivals", "WeibullArrivals", "GammaArrivals",
        "TraceArrivals", "ErrorModel", "parse_error_model", "error_model_from_dict",
        "error_model_kinds", "as_error_model", "require_memoryless",
    ),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .combined import CombinedErrors
    from .models import (
        ArrivalProcess, ErrorModel, ExponentialArrivals, GammaArrivals, TraceArrivals,
        WeibullArrivals, as_error_model, error_model_from_dict, error_model_kinds,
        parse_error_model, require_memoryless,
    )
