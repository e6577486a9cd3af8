"""Parameter elasticities of the optimal energy overhead.

Answers the practitioner's question "which knob matters?": for each
model parameter ``p`` (checkpoint cost, verification cost, error rate,
idle power, I/O power, performance bound), compute the elasticity

.. math::  \\epsilon_p = \\frac{d \\ln E^*}{d \\ln p}

of the *optimal* energy overhead ``E^* = E(Wopt, sigma1^*, sigma2^*)/Wopt``
— i.e. with the solver re-run at the perturbed parameter, so crossovers
of the optimal speed pair and re-clamping of ``Wopt`` are included
(unlike a fixed-design partial derivative).  Central finite differences
on the log-log scale; the solver is closed-form so each evaluation is
~1 ms.

Typical catalog-scale readings: ``epsilon_C ~ 0.02`` (checkpoints are a
small share of the energy at the optimum), ``epsilon_lambda ~ 0.02``
(both enter ``E*`` through the same ``2 sqrt(y z)`` term), and
``epsilon_rho = 0`` wherever the bound is inactive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..platforms.configuration import Configuration
from ..exceptions import InvalidParameterError
from ..sweep.axes import axis_by_name

__all__ = ["Elasticities", "parameter_elasticities"]

#: Parameter name -> its base value; the names are sweep axes, whose
#: ``apply`` rule makes each perturbation.
_BASE_VALUES = {
    "C": lambda cfg, rho: cfg.checkpoint_time,
    "V": lambda cfg, rho: cfg.verification_time,
    "lambda": lambda cfg, rho: cfg.lam,
    "Pidle": lambda cfg, rho: cfg.power.idle,
    "Pio": lambda cfg, rho: cfg.io_power,
    "rho": lambda cfg, rho: rho,
}


@dataclass(frozen=True)
class Elasticities:
    """Elasticities of the optimal energy overhead per parameter.

    ``values[p]`` is ``d ln E* / d ln p``; ``None`` marks parameters
    that could not be perturbed (zero base value has no log derivative,
    and perturbing across an infeasibility edge is undefined).
    """

    config_name: str
    rho: float
    base_energy: float
    values: dict[str, float | None]

    def ranked(self) -> list[tuple[str, float]]:
        """Parameters sorted by |elasticity|, most influential first."""
        items = [(k, v) for k, v in self.values.items() if v is not None]
        return sorted(items, key=lambda kv: abs(kv[1]), reverse=True)

    def most_influential(self) -> str:
        """Name of the parameter with the largest |elasticity|."""
        ranked = self.ranked()
        if not ranked:
            raise InvalidParameterError("no parameter could be perturbed")
        return ranked[0][0]


def parameter_elasticities(
    cfg: Configuration,
    rho: float,
    *,
    rel_step: float = 0.02,
    parameters: tuple[str, ...] | None = None,
) -> Elasticities:
    """Central-difference elasticities of the optimal energy overhead.

    The base point and every ±step perturbation (each made by the
    parameter's sweep axis, ``axis_by_name(name).apply``) compile into
    a single deduplicated :class:`repro.api.Experiment` batch, so the
    elasticities equal those of a sequential ``solve_bicrit`` loop.

    Parameters
    ----------
    rel_step:
        Relative perturbation size (each parameter is multiplied by
        ``1 +- rel_step``).  2% is large enough to dominate solver
        noise and small enough to stay within a crossover cell in the
        catalog settings.
    parameters:
        Restrict to a subset of ``("C", "V", "lambda", "Pidle", "Pio",
        "rho")``; defaults to all six.

    Examples
    --------
    >>> from repro.platforms import get_configuration
    >>> el = parameter_elasticities(get_configuration("hera-xscale"), 3.0)
    >>> el.values["rho"] == 0.0   # bound inactive at rho = 3
    True
    """
    from ..api.experiment import Experiment
    from ..api.scenario import Scenario

    if not 0 < rel_step < 0.5:
        raise InvalidParameterError("rel_step must be in (0, 0.5)")
    names = tuple(_BASE_VALUES) if parameters is None else tuple(parameters)
    unknown = set(names) - set(_BASE_VALUES)
    if unknown:
        raise KeyError(f"unknown parameters: {sorted(unknown)}")

    # One scenario for the base optimum + a (hi, lo) pair per
    # perturbable parameter, solved as one deduplicated plan.
    scenarios = [Scenario(config=cfg, rho=rho, label="base")]
    perturbable: list[str] = []
    for name in names:
        base = _BASE_VALUES[name](cfg, rho)
        if base <= 0:
            continue  # log-derivative undefined at zero
        axis = axis_by_name(name)
        cfg_hi, rho_hi = axis.apply(cfg, rho, base * (1 + rel_step))
        cfg_lo, rho_lo = axis.apply(cfg, rho, base * (1 - rel_step))
        scenarios.append(Scenario(config=cfg_hi, rho=rho_hi, label=f"{name}+"))
        scenarios.append(Scenario(config=cfg_lo, rho=rho_lo, label=f"{name}-"))
        perturbable.append(name)

    results = Experiment.from_scenarios(
        scenarios, name=f"sensitivity:{cfg.name}"
    ).solve()
    base_energy = results[0].require().best.energy_overhead

    out: dict[str, float | None] = {name: None for name in names}
    denominator = math.log1p(rel_step) - math.log1p(-rel_step)
    for k, name in enumerate(perturbable):
        hi, lo = results[1 + 2 * k], results[2 + 2 * k]
        if not (hi.feasible and lo.feasible):
            continue  # perturbation crossed the feasibility edge
        out[name] = (
            math.log(hi.best.energy_overhead) - math.log(lo.best.energy_overhead)
        ) / denominator
    return Elasticities(
        config_name=cfg.name, rho=rho, base_energy=base_energy, values=out
    )
