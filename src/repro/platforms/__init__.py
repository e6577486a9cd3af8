"""Platform & processor catalog substrate (Tables 1 and 2 of the paper)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".platform": ("Platform",),
    ".processor": ("Processor",),
    ".configuration": ("Configuration",),
    ".catalog": (
        "HERA", "ATLAS", "COASTAL", "COASTAL_SSD", "XSCALE", "CRUSOE", "PLATFORMS", "PROCESSORS",
        "all_configurations", "configuration_names", "get_configuration",
    ),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .catalog import (
        ATLAS, COASTAL, COASTAL_SSD, CRUSOE, HERA, PLATFORMS, PROCESSORS, XSCALE,
        all_configurations, configuration_names, get_configuration,
    )
    from .configuration import Configuration
    from .platform import Platform
    from .processor import Processor
