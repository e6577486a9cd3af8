"""DVFS power/energy substrate."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".model": ("PowerModel",),
    ".energy": ("compute_energy", "compute_time", "elapsed_compute_energy", "io_energy"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .energy import compute_energy, compute_time, elapsed_compute_energy, io_energy
    from .model import PowerModel
