"""Uniform solve results: one type across every backend.

Whatever backend solves a scenario — the Theorem-1 enumeration (scalar
or batched), the exact numeric optimiser, the combined-error solver or
the schedule kernels — the caller receives the same :class:`Result`:
the winning candidate, the full candidate list when a standalone solve
enumerates one, the backend-native payload under ``raw``, and
:class:`Provenance`
(backend name, wall time, cache/batch flags).  An ``Experiment`` solve
returns a :class:`ResultSet`, which adds NaN-encoded array accessors
and conversions into the existing reporting/serialize/CSV layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..exceptions import InfeasibleBoundError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.verbs import (
        CrossoverResult,
        DiffResult,
        FrontierResult,
        SavingsResult,
        SensitivityResult,
    )
    from ..simulation.estimators import AgreementReport
    from .scenario import Scenario

__all__ = ["Provenance", "Result", "ResultSet"]


@dataclass(frozen=True)
class Provenance:
    """How a result was obtained.

    Attributes
    ----------
    backend:
        Registry name of the backend that produced the result.
    wall_time:
        Seconds spent solving.  For batched solves this is the batch
        total divided by the batch size; ``0.0`` on cache hits.
    cache_hit:
        True when the result was replayed from a :class:`SolveCache`.
    batch_size:
        Number of scenarios solved together (1 = standalone solve).
    """

    backend: str
    wall_time: float = 0.0
    cache_hit: bool = False
    batch_size: int = 1


@dataclass(frozen=True)
class Result:
    """Uniform output of one scenario solve.

    Attributes
    ----------
    scenario:
        The spec that was solved.
    provenance:
        Backend name, wall time, cache/batch flags.
    best:
        The winning candidate (``PatternSolution``, ``ExactSolution``,
        ``ScheduleSolution``, …) or ``None`` when the bound is
        infeasible.  All candidate types expose ``sigma1``, ``sigma2``,
        ``work``, ``energy_overhead`` and ``time_overhead``.
    candidates:
        Per-pair outcomes of a standalone ``firstorder`` solve
        (:meth:`Scenario.solve` or ``backend.solve``), else empty.
        Batch rows (``Experiment`` solves, and cache entries
        they wrote) carry ``best`` and ``rho_min`` only.
    raw:
        The backend-native full payload (e.g. the ``BiCritSolution`` of
        a standalone ``firstorder`` solve), for callers that need
        backend-specific detail; ``None`` on ``firstorder`` batch rows.
        Callers that need it solve standalone with ``cache=False``.
    rho_min:
        Minimum feasible bound diagnostic, when the backend knows it.
    """

    scenario: "Scenario"
    provenance: Provenance
    best: Any | None
    candidates: tuple = field(default=(), repr=False)
    raw: Any = field(default=None, repr=False)
    rho_min: float | None = None

    # ------------------------------------------------------------------
    @property
    def feasible(self) -> bool:
        """True when the scenario admits a solution under its bound."""
        return self.best is not None

    def require(self) -> "Result":
        """Return ``self``, raising :class:`InfeasibleBoundError` if
        the solve found no feasible candidate."""
        if self.best is None:
            raise InfeasibleBoundError(self.scenario.rho, self.rho_min)
        return self

    # -- uniform accessors over the winning candidate -------------------
    @property
    def speed_pair(self) -> tuple[float, float] | None:
        """Winning ``(sigma1, sigma2)``, or ``None`` when infeasible."""
        if self.best is None:
            return None
        return (self.best.sigma1, self.best.sigma2)

    @property
    def work(self) -> float:
        """Winning pattern size (NaN when infeasible)."""
        return self.best.work if self.best is not None else math.nan

    @property
    def energy_overhead(self) -> float:
        """Winning energy per work unit (NaN when infeasible)."""
        return self.best.energy_overhead if self.best is not None else math.nan

    @property
    def time_overhead(self) -> float:
        """Achieved time per work unit (NaN when infeasible)."""
        return self.best.time_overhead if self.best is not None else math.nan

    # ------------------------------------------------------------------
    def simulate(
        self,
        n: int = 20_000,
        rng: "np.random.Generator | int | None" = None,
    ) -> "AgreementReport":
        """Monte-Carlo-validate this result against the model.

        Simulates ``n`` patterns of the winning ``(work, sigma1,
        sigma2)`` operating point under the scenario's error model and
        compares the sample means against the exact expectations — the
        same check as the CLI ``validate`` command, bound to the solved
        scenario.

        Raises
        ------
        InfeasibleBoundError
            When the result is infeasible (there is nothing to run).
        """
        from ..simulation.estimators import check_agreement

        self.require()
        cfg = self.scenario.resolved_config()
        if self.scenario.schedule is not None:
            return check_agreement(
                cfg,
                work=self.best.work,
                schedule=self.scenario.schedule,
                errors=self.scenario.resolved_errors(),
                n=n,
                rng=rng,
            )
        return check_agreement(
            cfg,
            work=self.best.work,
            sigma1=self.best.sigma1,
            sigma2=self.best.sigma2,
            errors=self.scenario.resolved_errors(),
            n=n,
            rng=rng,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable export (see ``reporting.serialize``)."""
        from ..reporting.serialize import result_to_dict

        return result_to_dict(self)


@dataclass(frozen=True)
class ResultSet:
    """An ordered batch of results — the output of ``Experiment.solve``.

    Order matches the experiment's scenario order, so positional zips
    against the scenario grid are safe.  Array accessors encode
    infeasible entries as NaN, mirroring ``SweepSeries``.
    """

    results: tuple[Result, ...]
    name: str = "study"

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Result]:
        return iter(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]

    # ------------------------------------------------------------------
    def feasible_mask(self) -> np.ndarray:
        """Boolean mask of feasible results, scenario order."""
        return np.array([r.feasible for r in self.results], dtype=bool)

    def speed_pairs(self) -> list[tuple[float, float] | None]:
        """Winning pairs per scenario (``None`` = infeasible)."""
        return [r.speed_pair for r in self.results]

    def works(self) -> np.ndarray:
        """Winning pattern sizes (NaN = infeasible)."""
        return np.array([r.work for r in self.results])

    def energy_overheads(self) -> np.ndarray:
        """Winning energy overheads (NaN = infeasible)."""
        return np.array([r.energy_overhead for r in self.results])

    def time_overheads(self) -> np.ndarray:
        """Achieved time overheads (NaN = infeasible)."""
        return np.array([r.time_overhead for r in self.results])

    # -- provenance aggregates ------------------------------------------
    def cache_hits(self) -> int:
        """How many results were replayed from cache."""
        return sum(1 for r in self.results if r.provenance.cache_hit)

    def total_wall_time(self) -> float:
        """Summed solver wall time across the batch (seconds)."""
        return sum(r.provenance.wall_time for r in self.results)

    def backends_used(self) -> tuple[str, ...]:
        """Distinct backend names, first-use order."""
        seen: dict[str, None] = {}
        for r in self.results:
            seen.setdefault(r.provenance.backend, None)
        return tuple(seen)

    # -- analysis verbs (implemented in repro.analysis.verbs) -----------
    def frontier(
        self,
        x: str = "time_overhead",
        y: str = "energy_overhead",
        *,
        prune: bool = True,
    ) -> "FrontierResult":
        """The x-vs-y trade-off frontier of these results (default:
        achieved time vs energy — the paper's bi-criteria curve), with
        a well-defined knee.  ``prune=False`` keeps the result order
        and collapses only consecutive duplicates."""
        from ..analysis.verbs import build_frontier

        return build_frontier(self, x, y, prune=prune)

    def savings(
        self,
        baseline: "ResultSet",
        *,
        values: "Sequence[float] | np.ndarray | None" = None,
        axis: str = "value",
        y: str = "energy_overhead",
    ) -> "SavingsResult":
        """Per-point percent savings of these results over a
        positionally-aligned ``baseline`` result set."""
        from ..analysis.verbs import build_savings

        return build_savings(self, baseline, values=values, axis=axis, y=y)

    def sensitivity(
        self,
        *,
        values: "Sequence[float] | np.ndarray | None" = None,
        axis: str = "rho",
        y: str = "energy_overhead",
    ) -> "SensitivityResult":
        """Central-difference log-log elasticities of ``y`` along the
        swept axis (defaults to the scenarios' ``rho``)."""
        from ..analysis.verbs import build_sensitivity

        return build_sensitivity(self, values=values, axis=axis, y=y)

    def crossover(
        self,
        *,
        values: "Sequence[float] | np.ndarray | None" = None,
        axis: str = "rho",
    ) -> "CrossoverResult":
        """All winning-speed-pair switches along the result order
        (feasibility transitions included)."""
        from ..analysis.verbs import build_crossover

        return build_crossover(self, values=values, axis=axis)

    def diff(self, a: int, b: int) -> "DiffResult":
        """Why results ``a`` and ``b`` differ: which scenario axis
        moved, whether the optimum stayed interior or jumped onto a
        feasibility crossing, how the feasible interval shifted — the
        variational trace of two (typically neighbouring) solves."""
        from ..analysis.verbs import build_diff

        return build_diff(self, a, b)

    # -- conversions into the reporting layers --------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-serialisable export, one dict per result."""
        return [r.to_dict() for r in self.results]

    def to_csv(self, path: str | Path) -> Path:
        """Write one CSV row per result (see ``reporting.csvio``)."""
        from ..reporting.csvio import write_results_csv

        return write_results_csv(path, self)
