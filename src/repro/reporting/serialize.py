"""JSON round-trips for solver outputs and sweep series.

Each ``*_to_dict`` produces plain JSON-serialisable dictionaries (floats,
strings, lists, ``None``); the matching ``*_from_dict`` restores the
dataclasses exactly.  A ``schema`` tag guards against loading a payload
into the wrong decoder.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..core.solution import PatternSolution
from ..sweep.runner import SweepPoint, SweepSeries
from ..exceptions import InvalidParameterError
from .jsonio import write_json

__all__ = [
    "solution_to_dict",
    "solution_from_dict",
    "series_to_dict",
    "series_from_dict",
    "result_to_dict",
    "dump_json",
    "load_json",
]

_SOLUTION_SCHEMA = "repro/pattern-solution/v1"
_SERIES_SCHEMA = "repro/sweep-series/v1"
_RESULT_SCHEMA = "repro/api-result/v1"


def solution_to_dict(sol: PatternSolution) -> dict[str, Any]:
    """Serialise one :class:`PatternSolution`."""
    return {
        "schema": _SOLUTION_SCHEMA,
        "sigma1": sol.sigma1,
        "sigma2": sol.sigma2,
        "work": sol.work,
        "energy_overhead": sol.energy_overhead,
        "time_overhead": sol.time_overhead,
        "energy_overhead_exact": sol.energy_overhead_exact,
        "time_overhead_exact": sol.time_overhead_exact,
        "rho_min": sol.rho_min,
    }


def solution_from_dict(data: dict[str, Any]) -> PatternSolution:
    """Restore a :class:`PatternSolution` (validates the schema tag)."""
    if data.get("schema") != _SOLUTION_SCHEMA:
        raise InvalidParameterError(f"not a pattern-solution payload: {data.get('schema')!r}")
    return PatternSolution(
        sigma1=data["sigma1"],
        sigma2=data["sigma2"],
        work=data["work"],
        energy_overhead=data["energy_overhead"],
        time_overhead=data["time_overhead"],
        energy_overhead_exact=data["energy_overhead_exact"],
        time_overhead_exact=data["time_overhead_exact"],
        rho_min=data["rho_min"],
    )


def series_to_dict(series: SweepSeries) -> dict[str, Any]:
    """Serialise one :class:`SweepSeries` (points carry ``None`` for
    infeasible solver outcomes)."""
    return {
        "schema": _SERIES_SCHEMA,
        "config_name": series.config_name,
        "axis_name": series.axis_name,
        "axis_label": series.axis_label,
        "rho": series.rho,
        "points": [
            {
                "value": p.value,
                "two_speed": solution_to_dict(p.two_speed) if p.two_speed else None,
                "single_speed": solution_to_dict(p.single_speed)
                if p.single_speed
                else None,
            }
            for p in series.points
        ],
    }


def series_from_dict(data: dict[str, Any]) -> SweepSeries:
    """Restore a :class:`SweepSeries` (validates the schema tag)."""
    if data.get("schema") != _SERIES_SCHEMA:
        raise InvalidParameterError(f"not a sweep-series payload: {data.get('schema')!r}")
    points = tuple(
        SweepPoint(
            value=p["value"],
            two_speed=solution_from_dict(p["two_speed"]) if p["two_speed"] else None,
            single_speed=solution_from_dict(p["single_speed"])
            if p["single_speed"]
            else None,
        )
        for p in data["points"]
    )
    return SweepSeries(
        config_name=data["config_name"],
        axis_name=data["axis_name"],
        axis_label=data["axis_label"],
        rho=data["rho"],
        points=points,
    )


def result_to_dict(result: Any) -> dict[str, Any]:
    """Serialise one :class:`repro.api.Result` (one-way export).

    The scenario is flattened to primitives (the configuration becomes
    its display name), the provenance is embedded, and the winning
    candidate keeps the fields every backend shares.  ``PatternSolution``
    bests additionally round-trip through :func:`solution_to_dict`.
    """
    scenario = result.scenario
    cfg = scenario.config
    best = result.best
    schedule = scenario.schedule
    errors = scenario.errors
    payload: dict[str, Any] = {
        "schema": _RESULT_SCHEMA,
        "scenario": {
            "config": cfg if isinstance(cfg, str) else cfg.name,
            "rho": scenario.rho,
            "mode": scenario.mode,
            "failstop_fraction": scenario.failstop_fraction,
            "error_rate": scenario.error_rate,
            "errors": None if errors is None else errors.to_dict(),
            "schedule": None if schedule is None else schedule.to_dict(),
            "label": scenario.label,
        },
        "provenance": {
            "backend": result.provenance.backend,
            "wall_time": result.provenance.wall_time,
            "cache_hit": result.provenance.cache_hit,
            "batch_size": result.provenance.batch_size,
        },
        "feasible": result.feasible,
        "rho_min": result.rho_min,
        "best": None,
    }
    if best is not None:
        if isinstance(best, PatternSolution):
            payload["best"] = solution_to_dict(best)
        else:
            payload["best"] = {
                "sigma1": best.sigma1,
                "sigma2": best.sigma2,
                "work": best.work,
                "energy_overhead": best.energy_overhead,
                "time_overhead": best.time_overhead,
            }
    return payload


def dump_json(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write a payload dict as pretty-printed JSON (``indent=2``, sorted
    keys, the bytes of ``json.dumps``); returns the path.

    The file is replaced whole (see :func:`~repro.reporting.jsonio.write_json`):
    a failed write leaves an existing file as it was.
    """
    return write_json(path, payload, sort_keys=True)


def load_json(path: str | Path) -> dict[str, Any]:
    """Load a JSON payload written by :func:`dump_json`."""
    return json.loads(Path(path).read_text())
