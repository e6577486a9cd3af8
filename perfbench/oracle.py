"""Output check: CSV solution columns against the scalar oracle.

An operation that repeats an earlier one (a cached replay, an exact
re-submission) is held to that one's rows instead; the rest are below.

Two-speed rows (no schedule, no error model) are re-solved by
enumerating ``evaluate_pair`` over the configuration's speed pairs, the
paper's O(K^2) procedure.  General-schedule rows are re-solved by the
scalar ``schedule`` backend.  A row matches when feasibility and the
speed pair agree and energy and time agree within a relative tolerance.
The ``wall_time`` and ``cache_hit`` columns are never compared.

Energy is pinned to 1e-9 relative everywhere.  Time is pinned to 1e-9
on two-speed rows, which share the scalar formulas with the oracle.  On
general-schedule rows the optimum can sit inside the feasible interval,
where energy is flat in the pattern size: the batched and scalar
optimisers place the size within their own tolerance, which moves the
achieved time by up to ~1e-8 relative while energy agrees to ~1e-15.
"""

from __future__ import annotations

import csv
import io
import math
import random

ENERGY_RTOL = 1e-9
TIME_RTOL_TWO_SPEED = 1e-9
TIME_RTOL_SCHEDULE = 1e-7


def _rho_key(rho: float) -> str:
    # The results CSV writes rho with 10 significant digits.
    return f"{rho:.10g}"


class Oracle:
    """Memoised scalar re-solves, keyed by the exact scenario."""

    def __init__(self) -> None:
        import repro
        from repro.core import solver

        self._repro = repro
        self._evaluate_pair = solver.evaluate_pair
        self._memo: dict[tuple, tuple] = {}
        # The CSV names a catalog configuration by its display name when
        # the scenario carried a resolved Configuration (service specs).
        names = repro.configuration_names()
        self._configs = {n: n for n in names}
        self._configs.update({repro.get_configuration(n).name: n for n in names})

    def _two_speed(self, config: str, rho: float, error_rate: float | None) -> tuple:
        cfg = self._repro.get_configuration(config)
        if error_rate is not None:
            cfg = cfg.with_error_rate(error_rate)
        best = None
        for s1 in cfg.speeds:
            for s2 in cfg.speeds:
                sol = self._evaluate_pair(cfg, s1, s2, rho).solution
                if sol is not None and (best is None or sol.energy_overhead < best.energy_overhead):
                    best = sol
        if best is None:
            return (False,)
        return (True, best.sigma1, best.sigma2, best.energy_overhead, best.time_overhead)

    def _schedule(self, config: str, rho: float, schedule: str, errors: str | None) -> tuple:
        scenario = self._repro.Scenario(
            config=config, rho=rho, schedule=schedule, errors=errors or None
        )
        try:
            result = scenario.solve(backend="schedule", cache=False)
        except self._repro.InfeasibleBoundError:
            return (False,)
        best = result.best
        return (True, best.sigma1, best.sigma2, best.energy_overhead, best.time_overhead)

    def expected(self, row: dict[str, str], rho: float) -> tuple:
        error_rate = float(row["error_rate"]) if row["error_rate"] else None
        config = self._configs[row["config"]]
        key = (config, rho, error_rate, row["schedule"], row["errors"])
        if key not in self._memo:
            if row["schedule"]:
                self._memo[key] = self._schedule(config, rho, row["schedule"], row["errors"])
            else:
                self._memo[key] = self._two_speed(config, rho, error_rate)
        return self._memo[key]

    def check_row(self, row: dict[str, str], rhos: dict[str, float]) -> str | None:
        """``None`` when the row matches the oracle, else why not."""
        rho = rhos.get(row["rho"])
        if rho is None:
            return f"rho {row['rho']} was never requested"
        want = self.expected(row, rho)
        got_feasible = row["sigma1"] != ""
        where = f"{row['config']} rho={row['rho']} {row['schedule'] or 'two-speed'} {row['errors']}"
        if got_feasible != want[0]:
            return f"{where}: feasible={got_feasible}, oracle says {want[0]}"
        if not got_feasible:
            return None
        _, s1, s2, energy, time = want
        if row["sigma1"] != f"{s1:.6g}" or row["sigma2"] != f"{s2:.6g}":
            return f"{where}: pair ({row['sigma1']}, {row['sigma2']}) vs oracle ({s1:.6g}, {s2:.6g})"
        time_rtol = TIME_RTOL_SCHEDULE if row["schedule"] else TIME_RTOL_TWO_SPEED
        for name, value, rtol in (
            ("energy_overhead", energy, ENERGY_RTOL),
            ("time_overhead", time, time_rtol),
        ):
            got = float(row[name])
            # The CSV keeps 10 significant digits: allow that rounding too.
            if not math.isclose(got, value, rel_tol=rtol + 5e-10):
                return f"{where}: {name} {got!r} vs oracle {value!r}"
        return None


def _solution(row: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in row.items() if k not in ("wall_time", "cache_hit")}


def check_ops(ops: list[dict], sample_rows: int, rng: random.Random) -> dict:
    """Check each operation's CSV rows.

    Each operation carries its ``csv`` text, the exact ``rhos`` it asked
    for and the number of ``scenarios`` it solved.  An operation that
    repeats an earlier one carries that one's CSV text as ``same_as`` and
    must reproduce every row of it (``wall_time`` and ``cache_hit``
    aside); the others have a seeded sample of rows re-solved by the
    oracle.  A mismatch is recorded as the operation's ``error``; the CSV
    texts are dropped once checked.
    """
    oracle = Oracle()
    checked, compared, mismatches = 0, 0, []
    for op in ops:
        text = op.pop("csv", None)
        reference = op.pop("same_as", None)
        if text is None:
            continue
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != op["scenarios"]:
            op["error"] = f"check: CSV has {len(rows)} rows for {op['scenarios']} scenarios"
            continue
        if reference is not None:
            want = list(csv.DictReader(io.StringIO(reference)))
            compared += len(rows)
            for i, (got, row) in enumerate(zip(rows, want)):
                if _solution(got) != _solution(row):
                    problem = f"row {i} differs from the operation it repeats: {_solution(got)} vs {_solution(row)}"
                    mismatches.append(problem)
                    op["error"] = f"check: {problem}"
                    break
            continue
        lookup = {_rho_key(r): r for r in op["rhos"]}
        for row in rng.sample(rows, min(sample_rows, len(rows))):
            checked += 1
            problem = oracle.check_row(row, lookup)
            if problem is not None:
                mismatches.append(problem)
                op["error"] = f"check: {problem}"
    return {"checked": checked, "compared": compared, "mismatches": mismatches}
