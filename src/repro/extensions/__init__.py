"""Extensions beyond the paper's evaluated scope.

* :mod:`~repro.extensions.multiverif` — q verifications per checkpoint
  (the related-work direction of Benoit/Robert/Raina) combined with the
  paper's two-speed re-execution, including partial verifications;
* :mod:`~repro.extensions.simulator` — Monte-Carlo validation engine
  for the multi-verification model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".multiverif": (
        "expected_time", "expected_energy", "time_overhead", "energy_overhead",
        "segment_detection_profile", "MultiVerifSolution", "solve_pattern",
        "solve_bicrit_multiverif",
    ),
    ".simulator": ("MultiVerifSimulator",),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .multiverif import (
        MultiVerifSolution, energy_overhead, expected_energy, expected_time,
        segment_detection_profile, solve_bicrit_multiverif, solve_pattern, time_overhead,
    )
    from .simulator import MultiVerifSimulator
