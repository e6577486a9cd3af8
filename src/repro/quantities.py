"""Unit conventions and validation helpers shared across the library.

Unit conventions (see DESIGN.md §5)
-----------------------------------
* **Work** is measured in seconds-at-full-speed: executing ``w`` units of
  work at speed ``sigma`` takes ``w / sigma`` seconds.  The verification
  cost ``V`` is work-like (it scales with ``1/sigma``), whereas the
  checkpoint ``C`` and recovery ``R`` are plain wall-clock seconds (I/O
  does not speed up with the CPU clock).
* **Speeds** are dimensionless, normalised to the processor's maximum
  (``0 < sigma <= 1`` for the paper's processors, although the model
  itself accepts any positive speed).
* **Power** is in milliwatts and **energy** in millijoules, matching the
  processor table of the paper (Table 2).
* Error rates ``lambda`` are per second; the platform MTBF is ``1/lambda``.

The helpers below centralise argument validation so that every public
constructor raises :class:`repro.exceptions.InvalidParameterError` with a
consistent message instead of failing deep inside NumPy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import TYPE_CHECKING, TypeAlias

from .exceptions import InvalidParameterError

__all__ = [
    "FloatArray",
    "ScalarOrArray",
    "require_positive",
    "require_nonnegative",
    "require_probability",
    "require_speed",
    "require_speed_set",
    "as_float_array",
    "is_scalar",
    "fmt_round_trip",
]

if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

    #: A float64 NumPy array — the element type every kernel computes in.
    FloatArray: TypeAlias = npt.NDArray[np.float64]


def __getattr__(name: str) -> object:
    """``FloatArray`` is built on first use: this module loads no NumPy."""
    if name != "FloatArray":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np
    import numpy.typing as npt

    alias = globals()["FloatArray"] = npt.NDArray[np.float64]
    return alias


#: The broadcastable in/out type of the model functions: a scalar input
#: yields a scalar result, an array input yields an elementwise array
#: (see :func:`as_float_array` / :func:`is_scalar`).
ScalarOrArray: TypeAlias = "float | FloatArray"


def fmt_round_trip(value: float) -> str:
    """Compact *round-tripping* float formatting for spec strings.

    ``%g`` keeps clean values clean (``0.4``, ``1``); when its 6
    significant digits would lose the value (e.g. the ``0.6000...01``
    speeds a geometric ramp produces, or a derived Weibull scale), fall
    back to ``repr`` so ``float(fmt_round_trip(x)) == x`` always holds.
    The single formatter behind both the schedule and the error-model
    spec grammars — their round-trip guarantees must stay in lockstep.
    """
    s = f"{value:g}"
    return s if float(s) == value else repr(value)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite, strictly positive float.

    Returns the value coerced to ``float`` so callers can write
    ``self.rate = require_positive(rate, "rate")``.
    """
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")
    return v


def require_nonnegative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite float >= 0 and return it."""
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return v


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    v = float(value)
    if not math.isfinite(v) or not 0.0 <= v <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def require_speed(value: float, name: str = "speed") -> float:
    """Validate a DVFS speed: finite and strictly positive.

    Speeds above 1 are permitted by the model (only the paper's catalog
    normalises to 1); zero or negative speeds would make ``W/sigma``
    meaningless and are rejected.
    """
    return require_positive(value, name)


def require_speed_set(speeds: Iterable[float]) -> tuple[float, ...]:
    """Validate and canonicalise a DVFS speed set.

    The set must be non-empty, every member must be a valid speed, and
    duplicates are rejected (a duplicated speed would silently double the
    solver's O(K^2) work and suggests a typo in a catalog entry).  The
    result is returned sorted ascending, which the solvers rely on when
    reporting "lowest/highest" speeds.
    """
    canon = tuple(sorted(require_speed(s, "every speed in the set") for s in speeds))
    if not canon:
        raise InvalidParameterError("the DVFS speed set must not be empty")
    if len(set(canon)) != len(canon):
        raise InvalidParameterError(f"duplicate speeds in DVFS set: {canon!r}")
    return canon


def as_float_array(value: npt.ArrayLike) -> FloatArray:
    """Coerce scalars/sequences to a float64 ndarray without copying arrays.

    Model functions accept either a scalar ``W`` or an array of pattern
    sizes; this helper makes them uniformly array-valued internally while
    :func:`is_scalar` lets the public wrappers return plain floats for
    scalar inputs.
    """
    import numpy as np

    return np.asarray(value, dtype=np.float64)


def is_scalar(value: npt.ArrayLike) -> bool:
    """True when ``value`` is a Python/NumPy scalar (0-d) input."""
    import numpy as np

    return np.ndim(value) == 0
