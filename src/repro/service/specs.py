"""The typed JSON spec codec: payloads in, ``Experiment``s out.

``POST /v1/jobs`` accepts a JSON *experiment spec* and this module is
the only place that interprets it.  Parsing is strict and total: every
problem in the payload is collected with its JSON field path
(``grid.schedules[2]``, ``scenarios[3].rho``) and reported in one
:class:`~repro.exceptions.InvalidSpecError` — the HTTP layer maps that
to ``422`` with the field paths, so a malformed payload never
surfaces as a 500 from deep inside :class:`~repro.api.scenario.Scenario`
parsing, and a client fixing a spec sees all its mistakes at once.

Spec grammar (see docs/service.md for the full reference)::

    {
      "name": "frontier-sweep",              // optional
      "grid": {                              // either grid ...
        "configs": ["hera-xscale"],
        "rhos": [2.8, 3.0] | {"start": 2.8, "stop": 5.5, "count": 100},
        "modes": ["silent"],
        "failstop_fractions": [0.2],
        "error_rates": [3.4e-6] | {"start": ..., "stop": ..., "count": ..,
                                   "scale": "log"},
        "schedules": ["geom:0.4,1.5,1", null],
        "error_models": ["weibull:shape=0.7,mtbf=3e5", null]
      },
      "scenarios": [ {"config": ..., "rho": ...,  ...} ],  // ... or list
      "backend": "schedule-grid",            // optional registry name
      "analyses": ["frontier"],              // optional verb exports
      "artifacts": ["csv", "json"]           // result export formats
    }

The codec resolves schedules/error models through their existing spec
grammars (``repro schedules`` / ``repro errors``) and validates
backend names against the live registry, so what parses here is
exactly what the solver layers accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any

import numpy as np

from ..api.backends import available_backends
from ..api.experiment import Experiment, iter_grid
from ..api.scenario import MODES, Scenario
from ..errors.models import as_error_model
from ..exceptions import InvalidSpecError, ReproError
from ..platforms.catalog import configuration_names, get_configuration
from ..schedules.base import as_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..errors.models import ErrorModel
    from ..platforms.configuration import Configuration
    from ..schedules.base import SpeedSchedule

__all__ = ["ExperimentSpec", "parse_experiment_spec", "ANALYSES", "ARTIFACT_FORMATS"]

#: Analysis verbs a job may request as exports.
ANALYSES: tuple[str, ...] = ("frontier", "sensitivity", "crossover")

#: Result-set export formats a job may request.
ARTIFACT_FORMATS: tuple[str, ...] = ("csv", "json")

_TOP_LEVEL_KEYS = frozenset(
    {"name", "grid", "scenarios", "backend", "analyses", "artifacts"}
)
_GRID_KEYS = frozenset(
    {
        "configs",
        "rhos",
        "modes",
        "failstop_fractions",
        "error_rates",
        "schedules",
        "error_models",
    }
)
_SCENARIO_KEYS = frozenset(
    {
        "config",
        "rho",
        "mode",
        "failstop_fraction",
        "error_rate",
        "schedule",
        "errors",
        "backend",
        "label",
    }
)
_RANGE_KEYS = frozenset({"start", "stop", "count", "scale"})


class _Issues:
    """Field-path-tagged problem collector."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, str]] = []

    def add(self, path: str, message: str) -> None:
        self.rows.append((path, message))

    def raise_if_any(self) -> None:
        if self.rows:
            raise InvalidSpecError(self.rows)


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated job request, ready to compile and execute.

    ``scenarios`` are fully-constructed :class:`Scenario` values (all
    schedule/error-model strings resolved), so building the
    :class:`~repro.api.experiment.Experiment` can no longer fail —
    validation happened here, in one place, with field paths.
    """

    name: str
    scenarios: tuple[Scenario, ...]
    backend: str | None = None
    analyses: tuple[str, ...] = ()
    artifacts: tuple[str, ...] = ARTIFACT_FORMATS

    def __len__(self) -> int:
        return len(self.scenarios)

    def experiment(self) -> Experiment:
        """The lazy pipeline this spec describes."""
        return Experiment.from_scenarios(self.scenarios, name=self.name)

    def summary(self) -> dict[str, Any]:
        """JSON-ready description echoed in job status payloads."""
        return {
            "name": self.name,
            "scenarios": len(self.scenarios),
            "backend": self.backend,
            "analyses": list(self.analyses),
            "artifacts": list(self.artifacts),
        }


# ----------------------------------------------------------------------
# Scalar field helpers
# ----------------------------------------------------------------------
def _expect_mapping(value: Any, path: str, issues: _Issues) -> dict[str, Any] | None:
    if not isinstance(value, dict):
        issues.add(path, f"expected an object, got {type(value).__name__}")
        return None
    return value

def _expect_str(value: Any, path: str, issues: _Issues) -> str | None:
    if not isinstance(value, str) or not value.strip():
        issues.add(path, f"expected a non-empty string, got {value!r}")
        return None
    return value

def _expect_number(value: Any, path: str, issues: _Issues) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        issues.add(path, f"expected a number, got {value!r}")
        return None
    out = float(value)
    if not math.isfinite(out):
        issues.add(path, f"expected a finite number, got {value!r}")
        return None
    return out

def _expect_list(value: Any, path: str, issues: _Issues) -> list[Any] | None:
    if not isinstance(value, list):
        issues.add(path, f"expected an array, got {type(value).__name__}")
        return None
    if not value:
        issues.add(path, "expected a non-empty array")
        return None
    return value


def _unknown_keys(
    payload: dict[str, Any], allowed: frozenset[str], path: str, issues: _Issues
) -> None:
    for key in sorted(set(payload) - allowed):
        where = f"{path}.{key}" if path else key
        issues.add(where, f"unknown field (allowed: {', '.join(sorted(allowed))})")


# ----------------------------------------------------------------------
# Axis parsers
# ----------------------------------------------------------------------
def _parse_numeric_axis(
    value: Any, path: str, issues: _Issues, *, positive: bool, max_count: int | None
) -> tuple[float, ...] | None:
    """A numeric axis: an array of numbers, or a range object
    ``{"start", "stop", "count"[, "scale": "linear"|"log"]}`` whose
    ``count`` may not exceed ``max_count`` (the per-job cap)."""
    if isinstance(value, dict):
        _unknown_keys(value, _RANGE_KEYS, path, issues)
        start = _expect_number(value.get("start"), f"{path}.start", issues)
        stop = _expect_number(value.get("stop"), f"{path}.stop", issues)
        count = value.get("count")
        if isinstance(count, bool) or not isinstance(count, int) or count < 2:
            issues.add(f"{path}.count", f"expected an integer >= 2, got {count!r}")
            count = None
        elif max_count is not None and count > max_count:
            issues.add(
                f"{path}.count",
                f"{count} points exceed the service cap of {max_count} "
                "scenarios per job; split the job",
            )
            count = None
        scale = value.get("scale", "linear")
        if scale not in ("linear", "log"):
            issues.add(f"{path}.scale", f"expected 'linear' or 'log', got {scale!r}")
            scale = None
        if start is None or stop is None or count is None or scale is None:
            return None
        if scale == "log":
            if start <= 0 or stop <= 0:
                issues.add(path, "log-scale ranges need positive start/stop")
                return None
            axis = np.geomspace(start, stop, count)
        else:
            axis = np.linspace(start, stop, count)
        values = tuple(float(v) for v in axis)
    else:
        items = _expect_list(value, path, issues)
        if items is None:
            return None
        out: list[float] = []
        ok = True
        for i, item in enumerate(items):
            num = _expect_number(item, f"{path}[{i}]", issues)
            if num is None:
                ok = False
            else:
                out.append(num)
        if not ok:
            return None
        values = tuple(out)
    if positive and any(v <= 0 for v in values):
        issues.add(path, "all values must be positive")
        return None
    return values


def _parse_optional_numeric_axis(
    value: Any, path: str, issues: _Issues, *, low: float = 0.0, high: float | None = None
) -> tuple[float | None, ...] | None:
    """An axis of numbers-or-null (fractions, rate overrides)."""
    items = _expect_list(value, path, issues)
    if items is None:
        return None
    out: list[float | None] = []
    ok = True
    for i, item in enumerate(items):
        if item is None:
            out.append(None)
            continue
        num = _expect_number(item, f"{path}[{i}]", issues)
        if num is None:
            ok = False
            continue
        if num < low or (high is not None and num > high):
            bound = f"[{low:g}, {high:g}]" if high is not None else f">= {low:g}"
            issues.add(f"{path}[{i}]", f"expected {bound}, got {num!r}")
            ok = False
            continue
        out.append(num)
    return tuple(out) if ok else None


def _parse_config(value: Any, path: str, issues: _Issues) -> "Configuration | None":
    name = _expect_str(value, path, issues)
    if name is None:
        return None
    try:
        return get_configuration(name)
    except (ReproError, KeyError):  # the catalog refuses with KeyError
        issues.add(
            path,
            f"unknown configuration {name!r}; catalog: "
            f"{', '.join(configuration_names())}",
        )
        return None


def _parse_schedule(
    value: Any, path: str, issues: _Issues
) -> "SpeedSchedule | None":
    if value is None:
        return None
    spec = _expect_str(value, path, issues)
    if spec is None:
        return None
    try:
        return as_schedule(spec)
    except ReproError as exc:
        issues.add(path, f"bad schedule spec: {exc}")
        return None


def _parse_errors(
    value: Any, path: str, issues: _Issues
) -> "ErrorModel | None":
    if value is None:
        return None
    spec = _expect_str(value, path, issues)
    if spec is None:
        return None
    try:
        return as_error_model(spec)
    except ReproError as exc:
        issues.add(path, f"bad error-model spec: {exc}")
        return None


def _parse_backend(value: Any, path: str, issues: _Issues) -> str | None:
    name = _expect_str(value, path, issues)
    if name is None:
        return None
    registered = available_backends()
    if name not in registered:
        issues.add(
            path,
            f"unknown backend {name!r}; registered: {', '.join(registered)}",
        )
        return None
    return name


def _parse_choice_list(
    value: Any, path: str, issues: _Issues, *, allowed: tuple[str, ...], what: str
) -> tuple[str, ...] | None:
    items = _expect_list(value, path, issues)
    if items is None:
        return None
    out: list[str] = []
    ok = True
    for i, item in enumerate(items):
        if item not in allowed:
            issues.add(
                f"{path}[{i}]",
                f"unknown {what} {item!r}; allowed: {', '.join(allowed)}",
            )
            ok = False
        elif item not in out:
            out.append(item)
    return tuple(out) if ok else None


# ----------------------------------------------------------------------
# Branch parsers
# ----------------------------------------------------------------------
def _parse_grid(
    grid: dict[str, Any], backend: str | None, max_points: int | None, issues: _Issues
) -> tuple[Scenario, ...] | None:
    """The grid's scenarios; past ``max_points`` it stops building, so
    an over-cap grid returns ``max_points + 1`` of them."""
    _unknown_keys(grid, _GRID_KEYS, "grid", issues)

    configs: "tuple[Configuration, ...] | None" = None
    if "configs" in grid:
        items = _expect_list(grid["configs"], "grid.configs", issues)
        if items is not None:
            parsed = [
                _parse_config(item, f"grid.configs[{i}]", issues)
                for i, item in enumerate(items)
            ]
            if all(cfg is not None for cfg in parsed):
                configs = tuple(cfg for cfg in parsed if cfg is not None)
    else:
        issues.add("grid.configs", "required: at least one catalog configuration name")

    rhos = _parse_numeric_axis(
        grid.get("rhos", [3.0]), "grid.rhos", issues, positive=True, max_count=max_points
    )

    modes: tuple[str, ...] | None = ("silent",)
    if "modes" in grid:
        modes = _parse_choice_list(
            grid["modes"], "grid.modes", issues, allowed=MODES, what="mode"
        )

    fractions: tuple[float | None, ...] | None = (None,)
    if "failstop_fractions" in grid:
        fractions = _parse_optional_numeric_axis(
            grid["failstop_fractions"],
            "grid.failstop_fractions",
            issues,
            low=0.0,
            high=1.0,
        )

    rates: tuple[float | None, ...] | None = (None,)
    if "error_rates" in grid:
        raw = grid["error_rates"]
        if isinstance(raw, dict):
            parsed_rates = _parse_numeric_axis(
                raw, "grid.error_rates", issues, positive=True, max_count=max_points
            )
            rates = parsed_rates if parsed_rates is None else tuple(parsed_rates)
        else:
            opt = _parse_optional_numeric_axis(
                raw, "grid.error_rates", issues, low=math.ulp(0.0)
            )
            rates = opt

    schedules: "tuple[SpeedSchedule | None, ...] | None" = (None,)
    if "schedules" in grid:
        items = _expect_list(grid["schedules"], "grid.schedules", issues)
        if items is None:
            schedules = None
        else:
            before = len(issues.rows)
            schedules = tuple(
                _parse_schedule(item, f"grid.schedules[{i}]", issues)
                for i, item in enumerate(items)
            )
            if len(issues.rows) > before:
                schedules = None

    models: "tuple[ErrorModel | None, ...] | None" = (
        None,
    )
    if "error_models" in grid:
        items = _expect_list(grid["error_models"], "grid.error_models", issues)
        if items is None:
            models = None
        else:
            before = len(issues.rows)
            models = tuple(
                _parse_errors(item, f"grid.error_models[{i}]", issues)
                for i, item in enumerate(items)
            )
            if len(issues.rows) > before:
                models = None

    if None in (configs, rhos, modes, fractions, rates, schedules, models):
        return None
    assert configs is not None and rhos is not None and modes is not None
    assert fractions is not None and rates is not None
    assert schedules is not None and models is not None
    scenarios = iter_grid(
        configs,
        rhos,
        modes=modes,
        failstop_fractions=fractions,
        error_rates=rates,
        schedules=schedules,
        error_models=models,
        backend=backend,
    )
    try:
        return tuple(
            scenarios if max_points is None else islice(scenarios, max_points + 1)
        )
    except ReproError as exc:
        # Cross-field constraints (a schedule with single-speed mode, a
        # fraction-less combined mode, ...) surface from Scenario
        # construction; the axis values themselves validated above.
        issues.add("grid", str(exc))
        return None


def _parse_scenario(
    payload: Any, path: str, backend: str | None, issues: _Issues
) -> Scenario | None:
    obj = _expect_mapping(payload, path, issues)
    if obj is None:
        return None
    _unknown_keys(obj, _SCENARIO_KEYS, path, issues)
    before = len(issues.rows)

    if "config" not in obj:
        issues.add(f"{path}.config", "required: a catalog configuration name")
    if "rho" not in obj:
        issues.add(f"{path}.rho", "required: the performance bound")
    cfg = (
        _parse_config(obj["config"], f"{path}.config", issues)
        if "config" in obj
        else None
    )
    rho = (
        _expect_number(obj["rho"], f"{path}.rho", issues) if "rho" in obj else None
    )
    mode = "silent"
    if "mode" in obj:
        parsed_mode = _expect_str(obj["mode"], f"{path}.mode", issues)
        if parsed_mode is not None and parsed_mode not in MODES:
            issues.add(
                f"{path}.mode",
                f"unknown mode {parsed_mode!r}; valid modes: {', '.join(MODES)}",
            )
        elif parsed_mode is not None:
            mode = parsed_mode
    fraction = None
    if obj.get("failstop_fraction") is not None:
        fraction = _expect_number(
            obj["failstop_fraction"], f"{path}.failstop_fraction", issues
        )
    rate = None
    if obj.get("error_rate") is not None:
        rate = _expect_number(obj["error_rate"], f"{path}.error_rate", issues)
    schedule = _parse_schedule(obj.get("schedule"), f"{path}.schedule", issues)
    errors = _parse_errors(obj.get("errors"), f"{path}.errors", issues)
    sc_backend = (
        _parse_backend(obj["backend"], f"{path}.backend", issues)
        if obj.get("backend") is not None
        else None
    )
    label = None
    if obj.get("label") is not None:
        label = _expect_str(obj["label"], f"{path}.label", issues)

    if len(issues.rows) > before or cfg is None or rho is None:
        return None
    try:
        return Scenario(
            config=cfg,
            rho=rho,
            mode=mode,
            failstop_fraction=fraction,
            error_rate=rate,
            schedule=schedule,
            errors=errors,
            backend=sc_backend or backend,
            label=label,
        )
    except ReproError as exc:
        # Cross-field constraints (fraction vs mode, schedule vs
        # explicit error model, ...) — the per-field values parsed.
        issues.add(path, str(exc))
        return None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_experiment_spec(
    payload: Any, *, max_points: int | None = None
) -> ExperimentSpec:
    """Validate one JSON job payload into an :class:`ExperimentSpec`.

    Raises :class:`~repro.exceptions.InvalidSpecError` carrying *every*
    problem found, each tagged with its JSON field path.  ``max_points``
    bounds the scenario count (the service's per-job cap).
    """
    issues = _Issues()
    obj = _expect_mapping(payload, "", issues)
    if obj is None:
        issues.add("", "the request body must be a JSON object")
        issues.raise_if_any()
    assert obj is not None
    _unknown_keys(obj, _TOP_LEVEL_KEYS, "", issues)

    name = "experiment"
    if "name" in obj:
        parsed_name = _expect_str(obj["name"], "name", issues)
        if parsed_name is not None:
            name = parsed_name.strip()

    backend = (
        _parse_backend(obj["backend"], "backend", issues)
        if obj.get("backend") is not None
        else None
    )

    analyses: tuple[str, ...] = ()
    if "analyses" in obj:
        parsed = _parse_choice_list(
            obj["analyses"], "analyses", issues, allowed=ANALYSES, what="analysis"
        )
        if parsed is not None:
            analyses = parsed

    artifacts: tuple[str, ...] = ARTIFACT_FORMATS
    if "artifacts" in obj:
        parsed = _parse_choice_list(
            obj["artifacts"],
            "artifacts",
            issues,
            allowed=ARTIFACT_FORMATS,
            what="artifact format",
        )
        if parsed is not None:
            artifacts = parsed

    has_grid = "grid" in obj
    has_scenarios = "scenarios" in obj
    scenarios: tuple[Scenario, ...] = ()
    if has_grid == has_scenarios:
        issues.add(
            "", "exactly one of 'grid' or 'scenarios' must be provided"
        )
    elif has_grid:
        grid = _expect_mapping(obj["grid"], "grid", issues)
        if grid is not None:
            parsed_grid = _parse_grid(grid, backend, max_points, issues)
            if parsed_grid is not None:
                scenarios = parsed_grid
    else:
        items = _expect_list(obj["scenarios"], "scenarios", issues)
        if items is not None:
            parsed_rows = [
                _parse_scenario(item, f"scenarios[{i}]", backend, issues)
                for i, item in enumerate(items)
            ]
            if all(sc is not None for sc in parsed_rows):
                scenarios = tuple(sc for sc in parsed_rows if sc is not None)

    if max_points is not None and len(scenarios) > max_points:
        issues.add(
            "grid" if has_grid else "scenarios",
            f"spec expands to more than {max_points} scenarios, the service "
            "cap per job; split the job",
        )

    issues.raise_if_any()
    return ExperimentSpec(
        name=name,
        scenarios=scenarios,
        backend=backend,
        analyses=analyses,
        artifacts=artifacts,
    )
