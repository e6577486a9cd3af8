"""Timed repetitions in, ``BENCH_<suite>.json`` out, and the gate rule.

Following Touati et al. (*Towards a Statistical Methodology to
Evaluate Program Speedups*), a workload is never judged on one run:

* :func:`run_suite` calls each workload ``warmup`` times untimed, then
  ``repetitions`` times timed.  Right before each timed call it times
  the host reference loop of ``perfbench/hostspeed.py``, and scales
  that call's wall time to the nominal host speed
  (``adjusted(raw, ref)``), so a host that drifts slower between
  repetitions or between runs does not read as a slower program;
* a workload's location is the **median** of its adjusted times and
  its uncertainty a seeded **percentile-bootstrap CI** of that median;
* :func:`compare_reports` judges every workload against its own entry
  in a committed report: a **regression** only when the adjusted
  median is worse by more than the factor ``BOUND`` *and* the two CIs
  do not overlap.  No workload is measured against another, so a
  faster workload never changes another's verdict.

Reports carry no timestamps, so a committed baseline changes only when
the measurements do.
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from perfbench.hostspeed import adjusted, reference_s

from repro.exceptions import InvalidParameterError
from repro.reporting.jsonio import encode_json, write_json

#: Schema tag of every report; bump on a breaking layout change.
SCHEMA = "repro-bench/2"

#: A workload regresses only when its adjusted median exceeds the
#: committed one by more than this factor (and the CIs are disjoint).
#: Twelve quick runs of one unchanged tree on a 2-vCPU VM (6 at 5
#: repetitions, 6 at 9) spread by up to 1.66x on one workload
#: (docs/performance.md); the bound sits above that and below the 2x
#: slowdowns the gate is there to catch.
BOUND = 1.7

#: A timed repetition calls its workload until this many seconds have
#: passed and records the time per call: a call of a few milliseconds
#: is shorter than the host reference beside it, and the two would
#: otherwise see different moments of a drifting host.
MIN_REPETITION_S = 0.05

#: Confidence level, resample count and seed of every bootstrap CI.
CONFIDENCE = 0.95
N_BOOT = 2000
SEED = 20160816


def _sample(samples: Sequence[float]) -> np.ndarray:
    xs = np.asarray(samples, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0 or not np.all(np.isfinite(xs)):
        raise InvalidParameterError(f"need a non-empty finite 1-D sample, got {samples!r}")
    return xs


def median(samples: Sequence[float]) -> float:
    """The sample median of a non-empty, finite sample."""
    return float(np.median(_sample(samples)))


def bootstrap_median_ci(
    samples: Sequence[float], *, confidence: float = CONFIDENCE
) -> tuple[float, float]:
    """Percentile-bootstrap ``confidence`` interval of the median.

    Deterministic given ``samples``; one sample gives a point interval.
    """
    xs = _sample(samples)
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(f"confidence must lie in (0, 1), got {confidence!r}")
    idx = np.random.default_rng(SEED).integers(0, xs.size, size=(N_BOOT, xs.size))
    meds = np.median(xs[idx], axis=1)
    alpha = (1.0 - confidence) / 2.0
    return float(np.quantile(meds, alpha)), float(np.quantile(meds, 1.0 - alpha))


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Whether two closed intervals share a point (touching counts)."""
    if a[0] > a[1] or b[0] > b[1]:
        raise InvalidParameterError(f"malformed interval(s) {a!r}, {b!r}: lo must be <= hi")
    return a[0] <= b[1] and b[0] <= a[1]


@dataclass(frozen=True)
class Workload:
    """One named, timeable unit of work.

    ``fn`` is called once per warmup and repetition; it may return
    auxiliary metrics (scenario counts) that go into the report.
    """

    name: str
    fn: Callable[[], Mapping[str, float] | None]


@dataclass(frozen=True)
class WorkloadStats:
    """One workload of a report.

    ``times`` are the raw wall seconds of the repetitions and ``refs``
    the host reference timed beside each; ``median`` and ``ci`` are
    over the adjusted times.
    """

    name: str
    times: tuple[float, ...]
    refs: tuple[float, ...]
    median: float
    ci: tuple[float, float]
    metrics: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def measured(
        cls,
        name: str,
        times: Sequence[float],
        refs: Sequence[float],
        metrics: Mapping[str, float] | None = None,
    ) -> WorkloadStats:
        """Stats of raw ``times`` under host references ``refs``."""
        adj = [adjusted(t, r) for t, r in zip(times, refs, strict=True)]
        return cls(
            name=name,
            times=tuple(times),
            refs=tuple(refs),
            median=median(adj),
            ci=bootstrap_median_ci(adj),
            metrics=dict(metrics or {}),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "times_s": list(self.times),
            "reference_s": list(self.refs),
            "median_s": self.median,
            "ci_s": list(self.ci),
        }
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> WorkloadStats:
        return cls(
            name=str(data["name"]),
            times=tuple(float(t) for t in data["times_s"]),
            refs=tuple(float(r) for r in data["reference_s"]),
            median=float(data["median_s"]),
            ci=(float(data["ci_s"][0]), float(data["ci_s"][1])),
            metrics={str(k): float(v) for k, v in data.get("metrics", {}).items()},
        )


@dataclass(frozen=True)
class BenchReport:
    """One suite's measurements, the in-memory form of ``BENCH_<name>.json``."""

    name: str
    workloads: tuple[WorkloadStats, ...]
    repetitions: int
    warmup: int
    environment: Mapping[str, Any] = field(default_factory=dict)

    def workload(self, name: str) -> WorkloadStats:
        """One workload's stats by name."""
        for ws in self.workloads:
            if ws.name == name:
                return ws
        raise InvalidParameterError(
            f"report {self.name!r} has no workload {name!r}; has: "
            f"{', '.join(ws.name for ws in self.workloads)}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "repetitions": self.repetitions,
            "warmup": self.warmup,
            "environment": dict(self.environment),
            "workloads": [ws.to_dict() for ws in self.workloads],
        }

    def to_json(self) -> str:
        return encode_json(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> BenchReport:
        schema = data.get("schema")
        if schema != SCHEMA:
            raise InvalidParameterError(
                f"bench report {data.get('name')!r} has schema {schema!r}, not "
                f"{SCHEMA!r}; re-record it: python -m benchmarks.harness run "
                f"{data.get('name', 'SUITE')} --quick --reps 5 --out DIR"
            )
        return cls(
            name=str(data["name"]),
            workloads=tuple(WorkloadStats.from_dict(w) for w in data["workloads"]),
            repetitions=int(data["repetitions"]),
            warmup=int(data["warmup"]),
            environment=dict(data.get("environment", {})),
        )

    @classmethod
    def load(cls, path: str | Path) -> BenchReport:
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def write(self, directory: str | Path) -> Path:
        """Write ``BENCH_<name>.json`` under ``directory``; returns the path."""
        return write_json(Path(directory) / f"BENCH_{self.name}.json", self.to_dict(), end="\n")


def run_suite(
    name: str, workloads: Sequence[Workload], *, repetitions: int = 5, warmup: int = 1
) -> BenchReport:
    """Measure ``workloads`` (``warmup`` untimed calls, then
    ``repetitions`` timed calls each, a host reference before every
    timed call) into a :class:`BenchReport`."""
    if not workloads or repetitions < 1 or warmup < 0:
        raise InvalidParameterError(
            f"run_suite needs workloads, repetitions >= 1 and warmup >= 0; got "
            f"{len(workloads)} workload(s), repetitions={repetitions}, warmup={warmup}"
        )
    for _ in range(warmup):
        for wl in workloads:
            wl.fn()
    times: dict[str, list[float]] = {wl.name: [] for wl in workloads}
    refs: dict[str, list[float]] = {wl.name: [] for wl in workloads}
    metrics: dict[str, dict[str, float]] = {wl.name: {} for wl in workloads}
    # Round-robin over the workloads, so that a slow spell of the host
    # falls on every workload's repetitions instead of all of one's.
    for _ in range(repetitions):
        for wl in workloads:
            refs[wl.name].append(reference_s())
            calls, start = 0, time.perf_counter()
            while not calls or time.perf_counter() - start < MIN_REPETITION_S:
                result = wl.fn()
                calls += 1
            times[wl.name].append((time.perf_counter() - start) / calls)
            metrics[wl.name].update({str(k): float(v) for k, v in (result or {}).items()})
    stats = [
        WorkloadStats.measured(wl.name, times[wl.name], refs[wl.name], metrics[wl.name])
        for wl in workloads
    ]
    return BenchReport(
        name=name,
        workloads=tuple(stats),
        repetitions=repetitions,
        warmup=warmup,
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    )


@dataclass(frozen=True)
class Verdict:
    """One workload of a suite judged against its committed entry."""

    suite: str
    workload: str
    verdict: str
    baseline: WorkloadStats
    current: WorkloadStats

    def describe(self) -> str:
        b, c = self.baseline.median, self.current.median
        return (
            f"{self.suite}/{self.workload}: {self.verdict} "
            f"(adjusted median {b:.4g}s -> {c:.4g}s, x{c / b:.2f})"
        )


def judge(baseline: WorkloadStats, current: WorkloadStats) -> str:
    """The gate rule: ``regression``, ``improvement`` or ``indistinguishable``.

    A move counts only when the medians differ by more than ``BOUND``
    and the CIs are disjoint.
    """
    ratio = current.median / baseline.median
    if intervals_overlap(baseline.ci, current.ci) or 1.0 / BOUND <= ratio <= BOUND:
        return "indistinguishable"
    return "regression" if ratio > BOUND else "improvement"


def compare_reports(baseline: BenchReport, current: BenchReport) -> tuple[Verdict, ...]:
    """Judge every workload the two reports of one suite share.

    A workload in only one report is skipped: a new workload has no
    baseline yet.
    """
    if baseline.name != current.name:
        raise InvalidParameterError(
            f"cannot compare different suites: baseline is {baseline.name!r}, "
            f"current is {current.name!r}"
        )
    base = {ws.name: ws for ws in baseline.workloads}
    return tuple(
        Verdict(current.name, ws.name, judge(base[ws.name], ws), base[ws.name], ws)
        for ws in current.workloads
        if ws.name in base
    )
