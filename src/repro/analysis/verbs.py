"""First-class analysis verbs over solved result sets.

Every derived analysis the paper reports — the energy-vs-time Pareto
frontier, savings over a baseline, parameter sensitivity, crossovers of
the winning policy — is a *verb* on a
:class:`~repro.api.result.ResultSet`:

========================  ==========================================
``results.frontier()``    :class:`FrontierResult` (trade-off curve + knee)
``results.savings(b)``    :class:`SavingsResult` (percent saved vs ``b``)
``results.sensitivity()`` :class:`SensitivityResult` (log-log elasticities)
``results.crossover()``   :class:`CrossoverResult` (policy switch points)
``results.diff(a, b)``    :class:`DiffResult` (why two optima differ)
========================  ==========================================

The verbs are pure post-processing: they read the solved results (any
backend, any schedule, any error model) and return small typed objects
with NumPy accessors, provenance, and CSV/JSON export — so a frontier
over a Weibull error model under a geometric schedule is exactly as
expressible as the paper's exponential two-speed case, and rides the
same batched solve the :class:`~repro.api.experiment.Experiment`
pipeline produced.

They are the only implementation of each analysis: the CLI, the
service and the helpers that answer one paper question
(:func:`repro.analysis.crossover.optimal_pairs_by_rho`,
:func:`repro.analysis.savings.summarize_savings`, …) all read their
answers off these verbs or :func:`percent_savings`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np
from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import Result, ResultSet
    from ..api.scenario import Scenario

__all__ = [
    "AnalysisProvenance",
    "FrontierPoint",
    "FrontierResult",
    "SavingsResult",
    "SensitivityResult",
    "CrossoverEvent",
    "CrossoverResult",
    "FieldDelta",
    "DiffResult",
    "build_frontier",
    "build_savings",
    "build_sensitivity",
    "build_crossover",
    "build_diff",
    "percent_savings",
]

#: Collapse tolerance for duplicate trade-off points (the plateau of
#: identical optima at loose bounds).
_DUP_ATOL = 1e-12


@dataclass(frozen=True)
class AnalysisProvenance:
    """How an analysis object was derived.

    Records the source result set's name and size plus the solve-side
    provenance aggregates (backends used, cache hits, summed wall
    time), so an exported CSV/JSON can say *which* solves produced it.
    """

    source: str
    n_results: int
    backends: tuple[str, ...]
    cache_hits: int
    total_wall_time: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "source": self.source,
            "n_results": self.n_results,
            "backends": list(self.backends),
            "cache_hits": self.cache_hits,
            "total_wall_time": self.total_wall_time,
        }


def _provenance(results: "ResultSet") -> AnalysisProvenance:
    return AnalysisProvenance(
        source=results.name,
        n_results=len(results),
        backends=results.backends_used(),
        cache_hits=results.cache_hits(),
        total_wall_time=results.total_wall_time(),
    )


def _write_rows(path: str | Path, fieldnames: Sequence[str], rows: Iterable[dict]) -> Path:
    from ..reporting.csvio import write_rows_csv

    return write_rows_csv(path, fieldnames, rows)


def _json_dump(payload: dict, path: str | Path | None) -> str | Path:
    from ..reporting.jsonio import encode_json, write_json

    if path is None:
        return encode_json(payload)
    return write_json(path, payload, end="\n")


# ----------------------------------------------------------------------
# Frontier
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrontierPoint:
    """One trade-off point of a frontier (one solved scenario)."""

    x: float
    y: float
    rho: float
    result: "Result" = field(repr=False)

    @property
    def time_overhead(self) -> float:
        """The winning candidate's achieved time overhead."""
        return self.result.time_overhead

    @property
    def energy_overhead(self) -> float:
        """The winning candidate's energy overhead."""
        return self.result.energy_overhead


@dataclass(frozen=True)
class FrontierResult:
    """An x-vs-y trade-off frontier read off a solved result set.

    By default ``x`` is the achieved time overhead and ``y`` the energy
    overhead — the paper's bi-criteria curve — but any pair of uniform
    result attributes (``work``, …) can be traded off.  Points are kept
    in ascending-``x`` order; with ``prune=True`` (the verb's default)
    dominated points are dropped so the curve is a true Pareto
    staircase, with ``prune=False`` the source order is kept and only
    consecutive duplicates collapse (on a rho sweep: one point per
    distinct optimum, as a per-point solve loop would list them).
    """

    name: str
    x_attr: str
    y_attr: str
    points: tuple[FrontierPoint, ...]
    provenance: AnalysisProvenance

    def __len__(self) -> int:
        return len(self.points)

    # Cached: the points tuple is frozen, and knee()/dominates()/the
    # CLI's rendering loop read these arrays repeatedly.  (cached_property
    # writes the instance __dict__ directly, which a frozen dataclass
    # permits; treat the returned arrays as read-only.)
    @cached_property
    def xs(self) -> np.ndarray:
        """The x coordinates, point order."""
        return np.array([p.x for p in self.points])

    @cached_property
    def ys(self) -> np.ndarray:
        """The y coordinates, point order."""
        return np.array([p.y for p in self.points])

    @property
    def times(self) -> np.ndarray:
        """Alias of :attr:`xs` for the default time/energy axes."""
        return self.xs

    @property
    def energies(self) -> np.ndarray:
        """Alias of :attr:`ys` for the default time/energy axes."""
        return self.ys

    @property
    def rhos(self) -> np.ndarray:
        """The scenario bounds behind the points."""
        return np.array([p.rho for p in self.points])

    # ------------------------------------------------------------------
    def is_monotone(self, tol: float = 1e-9) -> bool:
        """True when ``x`` is non-decreasing and ``y`` non-increasing
        along the frontier (every real trade-off curve is)."""
        if len(self.points) < 2:
            return True
        return bool(
            np.all(np.diff(self.xs) >= -tol) and np.all(np.diff(self.ys) <= tol)
        )

    def knee(self) -> FrontierPoint:
        """The maximum-distance-to-chord knee of the frontier.

        Normalises both axes to [0, 1], draws the chord between the
        endpoints, and returns the point farthest from it.  With fewer
        than 3 points the first point is returned; an empty frontier
        raises :class:`ValueError`.
        """
        if not self.points:
            raise InvalidParameterError("empty frontier has no knee")
        if len(self.points) < 3:
            return self.points[0]
        t = self.xs
        e = self.ys
        t_span = float(np.ptp(t)) or 1.0
        e_span = float(np.ptp(e)) or 1.0
        tn = (t - t.min()) / t_span
        en = (e - e.min()) / e_span
        p0 = np.array([tn[0], en[0]])
        p1 = np.array([tn[-1], en[-1]])
        chord = p1 - p0
        norm = np.hypot(*chord)
        if norm == 0.0:
            return self.points[0]
        d = np.abs(chord[0] * (en - p0[1]) - chord[1] * (tn - p0[0])) / norm
        return self.points[int(np.argmax(d))]

    def dominates(self, x: float, y: float) -> bool:
        """True if some frontier point weakly dominates ``(x, y)``."""
        return bool(np.any((self.xs <= x) & (self.ys <= y)))

    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """One JSON-serialisable dict per frontier point."""
        return [
            {
                "rho": p.rho,
                self.x_attr: p.x,
                self.y_attr: p.y,
                "scenario": p.result.scenario.describe(),
                "backend": p.result.provenance.backend,
            }
            for p in self.points
        ]

    def to_csv(self, path: str | Path) -> Path:
        """Write one CSV row per frontier point."""
        return _write_rows(
            path, ("rho", self.x_attr, self.y_attr, "scenario", "backend"),
            self.to_dicts(),
        )

    def to_json(self, path: str | Path | None = None) -> str | Path:
        """JSON export (returns the text, or writes to ``path``)."""
        return _json_dump(
            {
                "name": self.name,
                "x": self.x_attr,
                "y": self.y_attr,
                "points": self.to_dicts(),
                "provenance": self.provenance.to_dict(),
            },
            path,
        )


def build_frontier(
    results: "ResultSet",
    x: str = "time_overhead",
    y: str = "energy_overhead",
    *,
    prune: bool = True,
) -> FrontierResult:
    """Compile a :class:`FrontierResult` from a solved result set.

    Infeasible results are skipped.  ``prune=False`` keeps the result
    order and collapses only *consecutive* duplicate points (both axes
    within 1e-12), so a rho sweep lists each distinct optimum once, in
    bound order.  ``prune=True`` additionally sorts by
    ``x`` and drops dominated points, so arbitrary result sets (not
    just monotone rho sweeps) yield a valid monotone frontier.
    """
    feasible = [r for r in results if r.feasible]
    raw = [
        FrontierPoint(
            x=float(getattr(r, x)),
            y=float(getattr(r, y)),
            rho=float(r.scenario.rho),
            result=r,
        )
        for r in feasible
    ]
    if prune:
        raw.sort(key=lambda p: (p.x, p.y))
        staircase: list[FrontierPoint] = []
        for p in raw:
            if staircase and p.y >= staircase[-1].y - _DUP_ATOL:
                continue  # dominated (or a duplicate) by the running minimum
            staircase.append(p)
        points = staircase
    else:
        points = []
        for p in raw:
            if points:
                prev = points[-1]
                if (
                    abs(prev.x - p.x) < _DUP_ATOL
                    and abs(prev.y - p.y) < _DUP_ATOL
                ):
                    continue
            points.append(p)
    return FrontierResult(
        name=results.name,
        x_attr=x,
        y_attr=y,
        points=tuple(points),
        provenance=_provenance(results),
    )


# ----------------------------------------------------------------------
# Savings
# ----------------------------------------------------------------------
def percent_savings(candidate: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """Element-wise relative saving ``(1 - candidate/baseline) * 100``.

    NaN-propagating: any NaN (infeasible point) on either side yields
    NaN — the same encoding as the ``SweepSeries`` accessors.
    """
    candidate = np.asarray(candidate, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (1.0 - candidate / baseline) * 100.0


@dataclass(frozen=True)
class SavingsResult:
    """Per-point percent savings of a candidate over a baseline.

    ``values`` carries the swept axis (rho, checkpoint cost, fraction,
    …) so the argmax is reportable in the axis' own units; ``percent``
    is NaN wherever either side is infeasible.
    """

    name: str
    baseline_name: str
    axis: str
    values: np.ndarray
    percent: np.ndarray
    candidate_y: np.ndarray
    baseline_y: np.ndarray
    provenance: AnalysisProvenance

    def __len__(self) -> int:
        return len(self.percent)

    # ------------------------------------------------------------------
    @property
    def finite_mask(self) -> np.ndarray:
        """Points where both sides were feasible."""
        return np.isfinite(self.percent)

    @property
    def max_savings_percent(self) -> float:
        """The largest saving (NaN when no point is comparable)."""
        m = self.finite_mask
        if not m.any():
            return math.nan
        return float(self.percent[m].max())

    @property
    def argmax_value(self) -> float:
        """Axis value where the saving peaks (NaN when incomparable)."""
        m = self.finite_mask
        if not m.any():
            return math.nan
        sf = np.where(m, self.percent, -np.inf)
        return float(self.values[int(np.argmax(sf))])

    @property
    def mean_savings_percent(self) -> float:
        """Mean saving over the comparable points."""
        m = self.finite_mask
        if not m.any():
            return math.nan
        return float(np.mean(self.percent[m]))

    def num_points_with_savings(self, threshold: float = 0.01) -> int:
        """Comparable points saving more than ``threshold`` percent."""
        m = self.finite_mask
        return int(np.sum(self.percent[m] > threshold))

    @property
    def any_savings(self) -> bool:
        """True when at least one point saves > 0.01%."""
        return self.num_points_with_savings() > 0

    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """One JSON-serialisable dict per point."""
        out = []
        for v, p, c, b in zip(
            self.values, self.percent, self.candidate_y, self.baseline_y
        ):
            out.append(
                {
                    self.axis: float(v),
                    "candidate_energy": None if math.isnan(c) else float(c),
                    "baseline_energy": None if math.isnan(b) else float(b),
                    "savings_percent": None if math.isnan(p) else float(p),
                }
            )
        return out

    def to_csv(self, path: str | Path) -> Path:
        """Write one CSV row per point."""
        return _write_rows(
            path,
            (self.axis, "candidate_energy", "baseline_energy", "savings_percent"),
            self.to_dicts(),
        )

    def to_json(self, path: str | Path | None = None) -> str | Path:
        """JSON export (returns the text, or writes to ``path``)."""
        return _json_dump(
            {
                "name": self.name,
                "baseline": self.baseline_name,
                "axis": self.axis,
                "points": self.to_dicts(),
                "max_savings_percent": _nan_none(self.max_savings_percent),
                "argmax_value": _nan_none(self.argmax_value),
                "provenance": self.provenance.to_dict(),
            },
            path,
        )


def _nan_none(v: float) -> float | None:
    return None if math.isnan(v) else float(v)


def build_savings(
    results: "ResultSet",
    baseline: "ResultSet",
    *,
    values: Sequence[float] | np.ndarray | None = None,
    axis: str = "value",
    y: str = "energy_overhead",
) -> SavingsResult:
    """Per-point percent savings of ``results`` over ``baseline``.

    The two result sets must be positionally aligned (same length, one
    baseline point per candidate point); ``values`` labels the points
    with the swept axis values (defaults to the candidate scenarios'
    ``rho`` when they differ point-to-point, else the point index).
    """
    if len(results) != len(baseline):
        raise InvalidParameterError(
            f"candidate and baseline are not aligned: "
            f"{len(results)} vs {len(baseline)} results"
        )
    cand = np.array([float(getattr(r, y)) for r in results])
    base = np.array([float(getattr(r, y)) for r in baseline])
    if values is None:
        rhos = [r.scenario.rho for r in results]
        if len(set(rhos)) == len(rhos) and axis == "value":
            axis = "rho"
            values = np.array(rhos, dtype=float)
        else:
            values = np.arange(len(results), dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != cand.shape:
        raise InvalidParameterError(
            f"values axis has {values.shape[0]} entries for "
            f"{cand.shape[0]} results"
        )
    return SavingsResult(
        name=results.name,
        baseline_name=baseline.name,
        axis=axis,
        values=values,
        percent=percent_savings(cand, base),
        candidate_y=cand,
        baseline_y=base,
        provenance=_provenance(results),
    )


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SensitivityResult:
    """Log-log elasticities of ``y`` along a swept axis.

    ``elasticities[i]`` is the central-difference estimate of
    ``d ln y / d ln value`` at point ``i``; NaN at the endpoints, at
    infeasible points, and wherever a neighbour is infeasible or the
    axis value is non-positive (no log derivative there).
    """

    name: str
    axis: str
    y_attr: str
    values: np.ndarray
    y: np.ndarray
    elasticities: np.ndarray
    provenance: AnalysisProvenance

    def __len__(self) -> int:
        return len(self.values)

    @property
    def finite_mask(self) -> np.ndarray:
        """Points with a defined elasticity."""
        return np.isfinite(self.elasticities)

    def max_abs_elasticity(self) -> float:
        """The largest |elasticity| along the axis (NaN when none)."""
        m = self.finite_mask
        if not m.any():
            return math.nan
        return float(np.max(np.abs(self.elasticities[m])))

    def at(self, value: float) -> float:
        """Elasticity at the grid point closest to ``value``."""
        k = int(np.argmin(np.abs(self.values - value)))
        return float(self.elasticities[k])

    def to_dicts(self) -> list[dict[str, Any]]:
        """One JSON-serialisable dict per axis point."""
        return [
            {
                self.axis: float(v),
                self.y_attr: _nan_none(float(yy)),
                "elasticity": _nan_none(float(e)),
            }
            for v, yy, e in zip(self.values, self.y, self.elasticities)
        ]

    def to_csv(self, path: str | Path) -> Path:
        """Write one CSV row per axis point."""
        return _write_rows(
            path, (self.axis, self.y_attr, "elasticity"), self.to_dicts()
        )

    def to_json(self, path: str | Path | None = None) -> str | Path:
        """JSON export (returns the text, or writes to ``path``)."""
        return _json_dump(
            {
                "name": self.name,
                "axis": self.axis,
                "y": self.y_attr,
                "points": self.to_dicts(),
                "provenance": self.provenance.to_dict(),
            },
            path,
        )


def build_sensitivity(
    results: "ResultSet",
    *,
    values: Sequence[float] | np.ndarray | None = None,
    axis: str = "rho",
    y: str = "energy_overhead",
) -> SensitivityResult:
    """Central-difference elasticities of ``y`` along the result order.

    ``values`` defaults to the scenarios' ``rho`` (the natural axis of
    a bound sweep); pass the swept axis values for other sweeps.
    """
    if values is None:
        values = np.array([r.scenario.rho for r in results], dtype=float)
    values = np.asarray(values, dtype=float)
    ys = np.array([float(getattr(r, y)) for r in results])
    if values.shape != ys.shape:
        raise InvalidParameterError(
            f"values axis has {values.shape[0]} entries for "
            f"{ys.shape[0]} results"
        )
    n = len(ys)
    el = np.full(n, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        logv = np.where(values > 0, np.log(values), np.nan)
        logy = np.where(ys > 0, np.log(ys), np.nan)
    for i in range(1, n - 1):
        dv = logv[i + 1] - logv[i - 1]
        dy = logy[i + 1] - logy[i - 1]
        if np.isfinite(dv) and np.isfinite(dy) and dv != 0.0:
            el[i] = dy / dv
    return SensitivityResult(
        name=results.name,
        axis=axis,
        y_attr=y,
        values=values,
        y=ys,
        elasticities=el,
        provenance=_provenance(results),
    )


# ----------------------------------------------------------------------
# Crossover
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrossoverEvent:
    """A change of winning speed pair between consecutive points."""

    index_before: int
    index_after: int
    value_before: float
    value_after: float
    pair_before: tuple[float, float] | None
    pair_after: tuple[float, float] | None


@dataclass(frozen=True)
class CrossoverResult:
    """All winning-pair switches along a swept result set.

    Feasibility transitions (pair <-> ``None``) count as crossovers —
    they trace the feasibility frontier of a bound sweep.
    """

    name: str
    axis: str
    events: tuple[CrossoverEvent, ...]
    pairs: tuple[tuple[float, float] | None, ...]
    values: np.ndarray
    provenance: AnalysisProvenance

    def __len__(self) -> int:
        return len(self.events)

    def distinct_pairs(self) -> tuple[tuple[float, float], ...]:
        """The distinct feasible winners, first-win order."""
        seen: dict[tuple[float, float], None] = {}
        for p in self.pairs:
            if p is not None:
                seen.setdefault(p, None)
        return tuple(seen)

    def to_dicts(self) -> list[dict[str, Any]]:
        """One JSON-serialisable dict per crossover event."""
        return [
            {
                "value_before": e.value_before,
                "value_after": e.value_after,
                "pair_before": list(e.pair_before) if e.pair_before else None,
                "pair_after": list(e.pair_after) if e.pair_after else None,
            }
            for e in self.events
        ]

    def to_csv(self, path: str | Path) -> Path:
        """Write one CSV row per crossover event."""
        rows = [
            {
                "value_before": e.value_before,
                "value_after": e.value_after,
                "pair_before": "" if e.pair_before is None
                else f"{e.pair_before[0]:g}/{e.pair_before[1]:g}",
                "pair_after": "" if e.pair_after is None
                else f"{e.pair_after[0]:g}/{e.pair_after[1]:g}",
            }
            for e in self.events
        ]
        return _write_rows(
            path, ("value_before", "value_after", "pair_before", "pair_after"), rows
        )

    def to_json(self, path: str | Path | None = None) -> str | Path:
        """JSON export (returns the text, or writes to ``path``)."""
        return _json_dump(
            {
                "name": self.name,
                "axis": self.axis,
                "events": self.to_dicts(),
                "provenance": self.provenance.to_dict(),
            },
            path,
        )


def build_crossover(
    results: "ResultSet",
    *,
    values: Sequence[float] | np.ndarray | None = None,
    axis: str = "rho",
) -> CrossoverResult:
    """Locate the winning-pair switches along the result order.

    ``values`` defaults to the scenarios' ``rho``; infeasible points
    carry pair ``None`` and participate in crossovers (feasibility
    transitions are reported).
    """
    if values is None:
        values = np.array([r.scenario.rho for r in results], dtype=float)
    values = np.asarray(values, dtype=float)
    pairs = [r.speed_pair for r in results]
    if values.shape[0] != len(pairs):
        raise InvalidParameterError(
            f"values axis has {values.shape[0]} entries for "
            f"{len(pairs)} results"
        )
    events: list[CrossoverEvent] = []
    for i in range(1, len(pairs)):
        if pairs[i] != pairs[i - 1]:
            events.append(
                CrossoverEvent(
                    index_before=i - 1,
                    index_after=i,
                    value_before=float(values[i - 1]),
                    value_after=float(values[i]),
                    pair_before=pairs[i - 1],
                    pair_after=pairs[i],
                )
            )
    return CrossoverResult(
        name=results.name,
        axis=axis,
        events=tuple(events),
        pairs=tuple(pairs),
        values=values,
        provenance=_provenance(results),
    )


# ----------------------------------------------------------------------
# Variational trace diff
# ----------------------------------------------------------------------
#: Relative tolerance for "the optimum sits on a feasibility crossing":
#: the constrained solver's candidate rule returns the crossing value
#: itself when an endpoint wins, so the match is essentially exact and
#: the tolerance only absorbs export round-trips.
_REGIME_RTOL = 1e-9


@dataclass(frozen=True)
class FieldDelta:
    """One changed quantity between two results (or their scenarios).

    ``delta``/``percent`` are ``None`` for non-numeric fields and
    whenever either side is undefined (infeasible results carry NaN
    optima, which export as ``None``).
    """

    field: str
    before: float | str | None
    after: float | str | None
    delta: float | None = None
    percent: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "field": self.field,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "percent": self.percent,
        }


def _numeric_delta(field: str, va: float, vb: float) -> FieldDelta:
    defined = math.isfinite(va) and math.isfinite(vb)
    delta = vb - va if defined else None
    percent = (
        (vb / va - 1.0) * 100.0 if defined and va != 0.0 else None
    )
    return FieldDelta(
        field=field,
        before=_nan_none(va),
        after=_nan_none(vb),
        delta=delta,
        percent=percent,
    )


@dataclass(frozen=True)
class DiffResult:
    """Why two (typically neighbouring) solved optima differ.

    The variational view of a sweep: each point's solve is a small
    perturbation of its neighbour's, so the *differences* — which
    scenario axis moved, whether the optimum stayed interior or jumped
    onto a feasibility crossing, how the feasible pattern-size interval
    shifted, whether the winning speed pair flipped — explain the
    sweep's shape far more directly than the two absolute solutions.

    ``regime_before``/``regime_after`` classify where each optimum sits:
    ``interior`` (the unconstrained energy minimum), ``at-w-lo`` /
    ``at-w-hi`` (the time-overhead bound is binding — the optimum is a
    feasibility crossing), ``infeasible`` (no solution), or
    ``unbounded`` (no interval information on the result).
    """

    name: str
    index_a: int
    index_b: int
    scenario_changes: tuple[FieldDelta, ...]
    invariants_equal: bool
    regime_before: str
    regime_after: str
    changes: tuple[FieldDelta, ...]
    pair_before: tuple[float, float] | None
    pair_after: tuple[float, float] | None
    provenance: AnalysisProvenance

    def __len__(self) -> int:
        return len(self.changes)

    @property
    def feasibility_flip(self) -> bool:
        """True when exactly one side is infeasible."""
        return (self.regime_before == "infeasible") != (
            self.regime_after == "infeasible"
        )

    @property
    def regime_change(self) -> bool:
        """True when the optimum's binding regime differs."""
        return self.regime_before != self.regime_after

    @property
    def pair_flip(self) -> bool:
        """True when the winning speed pair changed."""
        return self.pair_before != self.pair_after

    def change(self, field: str) -> FieldDelta | None:
        """The delta for ``field`` (``None`` when it did not change)."""
        for d in self.changes:
            if d.field == field:
                return d
        return None

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable explanation of the difference."""
        bits: list[str] = []
        if not self.scenario_changes:
            drive = "identical scenarios"
        else:
            drive = ", ".join(
                f"{d.field} {d.before!r} -> {d.after!r}"
                if d.delta is None
                else f"{d.field} {d.before:g} -> {d.after:g}"
                for d in self.scenario_changes
            )
        bits.append(f"diff[{self.index_a} -> {self.index_b}]: {drive}")
        if not self.invariants_equal:
            bits.append("non-axis scenario fields differ (not sweep neighbours)")
        if self.feasibility_flip:
            bits.append(
                f"feasibility flipped: {self.regime_before} -> "
                f"{self.regime_after}"
            )
        elif self.regime_change:
            bits.append(
                f"optimum moved {self.regime_before} -> {self.regime_after}"
            )
        else:
            bits.append(f"optimum stayed {self.regime_before}")
        if self.pair_flip:
            bits.append(
                f"winning pair {self.pair_before} -> {self.pair_after}"
            )
        for d in self.changes:
            if d.percent is not None:
                bits.append(f"{d.field} {d.percent:+.3g}%")
        return "; ".join(bits)

    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """One JSON-serialisable dict per changed quantity."""
        return [d.to_dict() for d in self.scenario_changes] + [
            d.to_dict() for d in self.changes
        ]

    def to_csv(self, path: str | Path) -> Path:
        """Write one CSV row per changed quantity."""
        return _write_rows(
            path, ("field", "before", "after", "delta", "percent"), self.to_dicts()
        )

    def to_json(self, path: str | Path | None = None) -> str | Path:
        """JSON export (returns the text, or writes to ``path``)."""
        return _json_dump(
            {
                "name": self.name,
                "index_a": self.index_a,
                "index_b": self.index_b,
                "scenario_changes": [d.to_dict() for d in self.scenario_changes],
                "invariants_equal": self.invariants_equal,
                "regime_before": self.regime_before,
                "regime_after": self.regime_after,
                "feasibility_flip": self.feasibility_flip,
                "pair_before": list(self.pair_before) if self.pair_before else None,
                "pair_after": list(self.pair_after) if self.pair_after else None,
                "changes": [d.to_dict() for d in self.changes],
                "provenance": self.provenance.to_dict(),
            },
            path,
        )


def _regime(result: "Result") -> str:
    """Where this result's optimum sits (see :class:`DiffResult`)."""
    if not result.feasible:
        return "infeasible"
    interval = getattr(result.best, "interval", None)
    if interval is None:
        return "unbounded"
    lo, hi = float(interval[0]), float(interval[1])
    w = result.work
    if math.isclose(w, lo, rel_tol=_REGIME_RTOL):
        return "at-w-lo"
    if math.isclose(w, hi, rel_tol=_REGIME_RTOL):
        return "at-w-hi"
    return "interior"


#: The numeric scenario axes a diff reports, in the order of
#: :func:`_scenario_features`'s numeric part.
_AXES = ("error_rate", "failstop_fraction", "rho")


def _scenario_features(
    sc: "Scenario",
) -> tuple[tuple, tuple[float, float, float]]:
    """Split a scenario into (invariant key, numeric axes).

    The invariant key holds what stays constant along a sweep: platform
    constants (minus the error rate, which is a numeric axis even when
    it arrives folded into the configuration), the canonical schedule,
    the renewal model identity for non-memoryless families, mode and
    speed restrictions.  The numeric part is ``(total error rate,
    fail-stop fraction, rho)``.
    """
    cfg = sc.resolved_config()
    errors = sc.resolved_errors()
    if errors is None:
        # Silent-only: the solve reads the configuration's own rate.
        rate = cfg.lam
        frac = 0.0
        model_key: object = None
    elif errors.is_memoryless:
        # Exponential family: its rate and split are numeric axes.
        rate = errors.process.rate  # type: ignore[attr-defined]
        frac = errors.failstop_fraction
        model_key = None
    else:
        # General renewal family: the model is part of the invariant
        # identity (rates live inside its parameters).
        rate = 0.0
        frac = 0.0
        model_key = errors
    invariant = (
        sc.mode,
        cfg.checkpoint_time,
        cfg.verification_time,
        cfg.recovery_time,
        cfg.processor,
        cfg.io_power,
        cfg.speeds,
        sc.speeds,
        sc.sigma2_choices,
        sc.schedule,
        model_key,
    )
    return invariant, (float(rate), float(frac), float(sc.rho))


def build_diff(results: "ResultSet", a: int, b: int) -> DiffResult:
    """Explain why results ``a`` and ``b`` of a set differ.

    Indices follow the result order (negative indices allowed).  The
    scenario-side deltas name the numeric sweep axes that moved (total
    error rate, fail-stop fraction, rho); the solution-side deltas
    cover the optimum
    (pattern size, energy/time overheads) and the feasible interval's
    crossings, with the binding-regime classification saying whether a
    feasibility crossing started or stopped pinning the optimum.
    """
    n = len(results)
    ra: "Result" = results[a]
    rb: "Result" = results[b]
    ia, ib = a % n if n else a, b % n if n else b

    inv_a, ax_a = _scenario_features(ra.scenario)
    inv_b, ax_b = _scenario_features(rb.scenario)
    scenario_changes = tuple(
        _numeric_delta(_AXES[j], ax_a[j], ax_b[j])
        for j in range(len(_AXES))
        if ax_a[j] != ax_b[j]
    )

    fields: list[tuple[str, float, float]] = [
        ("work", ra.work, rb.work),
        ("energy_overhead", ra.energy_overhead, rb.energy_overhead),
        ("time_overhead", ra.time_overhead, rb.time_overhead),
    ]
    int_a = getattr(ra.best, "interval", None)
    int_b = getattr(rb.best, "interval", None)
    if int_a is not None or int_b is not None:
        ia_lo, ia_hi = (
            (float(int_a[0]), float(int_a[1]))
            if int_a is not None
            else (math.nan, math.nan)
        )
        ib_lo, ib_hi = (
            (float(int_b[0]), float(int_b[1]))
            if int_b is not None
            else (math.nan, math.nan)
        )
        fields.append(("w_lo", ia_lo, ib_lo))
        fields.append(("w_hi", ia_hi, ib_hi))
    changes = tuple(
        _numeric_delta(name, va, vb)
        for name, va, vb in fields
        if not (va == vb or (math.isnan(va) and math.isnan(vb)))
    )
    return DiffResult(
        name=results.name,
        index_a=ia,
        index_b=ib,
        scenario_changes=scenario_changes,
        invariants_equal=inv_a == inv_b,
        regime_before=_regime(ra),
        regime_after=_regime(rb),
        changes=changes,
        pair_before=ra.speed_pair,
        pair_after=rb.speed_pair,
        provenance=_provenance(results),
    )
