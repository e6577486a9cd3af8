""":class:`BenchRunner` — timed repetitions in, ``BENCH_*.json`` out.

The runner is deliberately dumb about *what* it times (that lives in
:mod:`repro.perf.workloads`) and deliberately careful about *how*: a
fixed number of warmup calls that are never recorded (first-call
effects — imports, cold caches — are real but are not
the steady-state cost a speedup claim is about), then ``repetitions``
timed calls per workload, then medians, bootstrap CIs and per-workload
speedups vs the suite's named baseline (:mod:`repro.perf.stats`).

Reports serialise to a stable, diff-friendly JSON document
(``schema: repro-bench/1``).  Deliberately **no timestamps**: a
committed baseline report should only change when the measurements
change.  The recorded environment block (python/numpy versions,
platform) is informational — comparisons gate on the
dimensionless speedup columns precisely so that baselines survive a
machine change (see :mod:`repro.perf.compare`).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from ..exceptions import InvalidParameterError
from .stats import (
    DEFAULT_BOOTSTRAP,
    DEFAULT_SEED,
    bootstrap_median_ci,
    bootstrap_speedup_ci,
    median,
)
from .workloads import Workload

__all__ = ["BenchRunner", "BenchReport", "WorkloadStats", "SCHEMA"]

#: Schema tag written into every report; bump on breaking layout change.
SCHEMA = "repro-bench/1"


@dataclass(frozen=True)
class WorkloadStats:
    """Measured statistics for one workload of a report.

    ``speedup``/``speedup_ci`` are ``None`` for baseline workloads
    (nothing to compare against); ``metrics`` carries whatever
    auxiliary numbers the workload callable returned (scenario counts,
    residuals).
    """

    name: str
    times: tuple[float, ...]
    median: float
    ci: tuple[float, float]
    baseline: str | None = None
    speedup: float | None = None
    speedup_ci: tuple[float, float] | None = None
    metrics: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "times_s": list(self.times),
            "median_s": self.median,
            "ci_s": list(self.ci),
        }
        if self.baseline is not None:
            out["baseline"] = self.baseline
            out["speedup"] = self.speedup
            out["speedup_ci"] = (
                None if self.speedup_ci is None else list(self.speedup_ci)
            )
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadStats":
        speedup_ci = data.get("speedup_ci")
        return cls(
            name=str(data["name"]),
            times=tuple(float(t) for t in data["times_s"]),
            median=float(data["median_s"]),
            ci=(float(data["ci_s"][0]), float(data["ci_s"][1])),
            baseline=data.get("baseline"),
            speedup=(
                None if data.get("speedup") is None else float(data["speedup"])
            ),
            speedup_ci=(
                None
                if speedup_ci is None
                else (float(speedup_ci[0]), float(speedup_ci[1]))
            ),
            metrics={
                str(k): float(v) for k, v in data.get("metrics", {}).items()
            },
        )


@dataclass(frozen=True)
class BenchReport:
    """One suite's measurements — the in-memory form of ``BENCH_<name>.json``."""

    name: str
    workloads: tuple[WorkloadStats, ...]
    repetitions: int
    warmup: int
    confidence: float
    environment: Mapping[str, Any] = field(default_factory=dict)

    def workload(self, name: str) -> WorkloadStats:
        """Look up one workload's stats by name."""
        for ws in self.workloads:
            if ws.name == name:
                return ws
        raise InvalidParameterError(
            f"report {self.name!r} has no workload {name!r}; has: "
            f"{', '.join(ws.name for ws in self.workloads)}"
        )

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "repetitions": self.repetitions,
            "warmup": self.warmup,
            "confidence": self.confidence,
            "environment": dict(self.environment),
            "workloads": [ws.to_dict() for ws in self.workloads],
        }

    def to_json(self) -> str:
        from ..reporting.jsonio import encode_json

        return encode_json(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchReport":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise InvalidParameterError(
                f"unsupported bench report schema {schema!r} (expected {SCHEMA!r})"
            )
        return cls(
            name=str(data["name"]),
            workloads=tuple(
                WorkloadStats.from_dict(w) for w in data["workloads"]
            ),
            repetitions=int(data["repetitions"]),
            warmup=int(data["warmup"]),
            confidence=float(data["confidence"]),
            environment=dict(data.get("environment", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "BenchReport":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def write(self, directory: str | Path) -> Path:
        """Write ``BENCH_<name>.json`` under ``directory``; returns the path."""
        from ..reporting.jsonio import write_json

        return write_json(Path(directory) / f"BENCH_{self.name}.json", self.to_dict(), end="\n")


def _environment() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


@dataclass(frozen=True)
class BenchRunner:
    """Runs workload suites with warmup, repetitions and bootstrap CIs.

    ``repetitions`` timed calls per workload (after ``warmup`` untimed
    ones), all statistics at ``confidence`` with ``n_boot`` seeded
    bootstrap resamples — a report is a deterministic function of the
    observed wall times.
    """

    repetitions: int = 5
    warmup: int = 1
    confidence: float = 0.95
    n_boot: int = DEFAULT_BOOTSTRAP
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise InvalidParameterError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.warmup < 0:
            raise InvalidParameterError(
                f"warmup must be >= 0, got {self.warmup}"
            )

    # ------------------------------------------------------------------
    def _time_workload(
        self, workload: Workload
    ) -> tuple[tuple[float, ...], dict[str, float]]:
        metrics: dict[str, float] = {}
        for _ in range(self.warmup):
            workload.fn()
        times: list[float] = []
        for _ in range(self.repetitions):
            start = time.perf_counter()
            result = workload.fn()
            times.append(time.perf_counter() - start)
            if result:
                metrics.update({str(k): float(v) for k, v in result.items()})
        return tuple(times), metrics

    def run(
        self, name: str, workloads: Sequence[Workload]
    ) -> BenchReport:
        """Measure ``workloads`` and assemble a :class:`BenchReport`.

        Baselines must be measured before (appear earlier in the suite
        than) the workloads that reference them.
        """
        if not workloads:
            raise InvalidParameterError("run() needs at least one workload")
        samples: dict[str, tuple[float, ...]] = {}
        stats: list[WorkloadStats] = []
        for wl in workloads:
            times, metrics = self._time_workload(wl)
            samples[wl.name] = times
            speedup: float | None = None
            speedup_ci: tuple[float, float] | None = None
            if wl.baseline is not None:
                base = samples.get(wl.baseline)
                if base is None:
                    raise InvalidParameterError(
                        f"workload {wl.name!r} names baseline "
                        f"{wl.baseline!r}, which has not been measured yet"
                    )
                speedup = median(base) / median(times)
                speedup_ci = bootstrap_speedup_ci(
                    base,
                    times,
                    confidence=self.confidence,
                    n_boot=self.n_boot,
                    seed=self.seed,
                )
            stats.append(
                WorkloadStats(
                    name=wl.name,
                    times=times,
                    median=median(times),
                    ci=bootstrap_median_ci(
                        times,
                        confidence=self.confidence,
                        n_boot=self.n_boot,
                        seed=self.seed,
                    ),
                    baseline=wl.baseline,
                    speedup=speedup,
                    speedup_ci=speedup_ci,
                    metrics=metrics,
                )
            )
        return BenchReport(
            name=name,
            workloads=tuple(stats),
            repetitions=self.repetitions,
            warmup=self.warmup,
            confidence=self.confidence,
            environment=_environment(),
        )
