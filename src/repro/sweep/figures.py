"""Figure specifications: which sweep regenerates which paper figure.

Figures 2-7 are the six parameter sweeps (``C``, ``V``, ``lambda``,
``rho``, ``Pidle``, ``Pio``) for Atlas/Crusoe; Figures 8-14 repeat all
six panels for the remaining seven configurations.  Each spec knows its
configuration, its panels, and the axis ranges (the paper narrows the
``lambda`` axis to 1e-3 for the two low-rate Coastal platforms).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..platforms.catalog import get_configuration
from ..platforms.configuration import Configuration
from .axes import SweepAxis, axis_by_name
from .runner import SweepSeries, run_sweep

__all__ = ["FigureSpec", "FIGURES", "figure_spec", "run_figure", "run_panel"]

#: Default performance bound of the experiments (Section 4.1).
DEFAULT_RHO = 3.0

#: Panel order used by every multi-panel figure of the paper.
PANEL_ORDER: tuple[str, ...] = ("C", "V", "lambda", "rho", "Pidle", "Pio")


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure: a configuration plus one or more axis panels."""

    figure_id: str
    config_name: str
    panels: tuple[str, ...]
    lambda_max: float
    description: str

    def configuration(self) -> Configuration:
        """Resolve the spec's configuration from the catalog."""
        return get_configuration(self.config_name)

    def axis(self, panel: str, n: int | None = None) -> SweepAxis:
        """Build the axis for one panel, honouring the figure's
        ``lambda`` range; ``n`` overrides the default resolution."""
        if panel not in self.panels:
            raise KeyError(f"{self.figure_id} has no panel {panel!r}")
        kwargs: dict = {}
        if n is not None:
            kwargs["n"] = n
        if panel == "lambda":
            kwargs["hi"] = self.lambda_max
        return axis_by_name(panel, **kwargs)


def _spec(
    fid: str,
    config: str,
    lambda_max: float,
    desc: str,
    panels: Sequence[str] = PANEL_ORDER,
) -> FigureSpec:
    return FigureSpec(
        figure_id=fid,
        config_name=config,
        panels=tuple(panels),
        lambda_max=lambda_max,
        description=desc,
    )


#: Figure-id -> spec, covering every data figure of the paper.  Figures
#: 2-7 are the six individual Atlas/Crusoe panels; 8-14 bundle all six
#: panels per remaining configuration.
FIGURES: dict[str, FigureSpec] = {
    "fig2": _spec("fig2", "atlas-crusoe", 1e-2, "Atlas/Crusoe vs C", ("C",)),
    "fig3": _spec("fig3", "atlas-crusoe", 1e-2, "Atlas/Crusoe vs V", ("V",)),
    "fig4": _spec("fig4", "atlas-crusoe", 1e-2, "Atlas/Crusoe vs lambda", ("lambda",)),
    "fig5": _spec("fig5", "atlas-crusoe", 1e-2, "Atlas/Crusoe vs rho", ("rho",)),
    "fig6": _spec("fig6", "atlas-crusoe", 1e-2, "Atlas/Crusoe vs Pidle", ("Pidle",)),
    "fig7": _spec("fig7", "atlas-crusoe", 1e-2, "Atlas/Crusoe vs Pio", ("Pio",)),
    "fig8": _spec("fig8", "hera-xscale", 1e-2, "Hera/XScale, all six sweeps"),
    "fig9": _spec("fig9", "atlas-xscale", 1e-2, "Atlas/XScale, all six sweeps"),
    "fig10": _spec("fig10", "coastal-xscale", 1e-3, "Coastal/XScale, all six sweeps"),
    "fig11": _spec("fig11", "coastal-ssd-xscale", 1e-3, "Coastal SSD/XScale, all six sweeps"),
    "fig12": _spec("fig12", "hera-crusoe", 1e-2, "Hera/Crusoe, all six sweeps"),
    "fig13": _spec("fig13", "coastal-crusoe", 1e-3, "Coastal/Crusoe, all six sweeps"),
    "fig14": _spec("fig14", "coastal-ssd-crusoe", 1e-3, "Coastal SSD/Crusoe, all six sweeps"),
}


def figure_spec(figure_id: str) -> FigureSpec:
    """Look a figure spec up by id (``"fig2"`` .. ``"fig14"``)."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; valid ids: {', '.join(FIGURES)}"
        ) from None


def run_panel(
    spec: FigureSpec,
    panel: str,
    *,
    rho: float = DEFAULT_RHO,
    n: int | None = None,
    backend: str | None = None,
) -> SweepSeries:
    """Run one panel of a figure and return its series.

    ``backend`` forwards a :mod:`repro.api` registry name to the sweep
    (``None`` = ``firstorder``, batched; ``"grid"`` is its alias).
    """
    cfg = spec.configuration()
    return run_sweep(cfg, rho, spec.axis(panel, n=n), backend=backend)


def run_figure(
    figure_id: str,
    *,
    rho: float = DEFAULT_RHO,
    n: int | None = None,
    backend: str | None = None,
) -> dict[str, SweepSeries]:
    """Run every panel of a figure; returns ``panel -> SweepSeries``.

    ``n`` lowers the per-panel resolution (useful for quick looks and
    benchmarks; the defaults match the paper's visual resolution).
    ``backend`` forwards a :mod:`repro.api` registry name to the
    per-panel sweeps.
    """
    spec = figure_spec(figure_id)
    return {
        panel: run_panel(spec, panel, rho=rho, n=n, backend=backend)
        for panel in spec.panels
    }
