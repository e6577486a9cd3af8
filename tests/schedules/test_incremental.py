"""The incremental solve tier: sub-grids, warm starts, fallbacks.

Unit-level pins of PR 9 (the property suite in
``tests/properties/test_prop_incremental.py`` fuzzes the same
warm-equals-cold contract over random scenarios):

* ``ScheduleGrid.take`` sub-grids evaluate byte-identically to the
  parent rows (the property the anchor sub-solves rely on);
* warm-started solves agree with the cold pass to ``1e-9`` absolute
  energy across the whole platform catalog, with cold-solved rows
  byte-identical and the stats ledger accounting for every row;
* option containers (:class:`IncrementalOptions`,
  :class:`SolverOptions`) validate eagerly, and default
  :class:`SolverOptions` change nothing against the historical
  constants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.platforms import configuration_names, get_configuration
from repro.schedules import TwoSpeed, parse_schedule
from repro.schedules.incremental import (
    IncrementalOptions,
    IncrementalStats,
    solve_schedule_grid_incremental,
)
from repro.schedules.vectorized import (
    DEFAULT_SOLVER_OPTIONS,
    ScheduleGrid,
    SolverOptions,
    solve_schedule_grid,
)

ENERGY_ATOL = 1e-9

SCHEDULE = parse_schedule("geom:0.4,1.5,1")


def _sweep_points(cfg, n, schedule=SCHEDULE, errors=None):
    return [(cfg, schedule, errors)] * n


def _assert_matches_cold(points, rhos):
    grid = ScheduleGrid.from_points(points)
    cold = solve_schedule_grid(grid, rhos)
    warm = solve_schedule_grid_incremental(grid, rhos)
    assert np.array_equal(cold.feasible, warm.feasible)
    err = np.abs(
        np.where(cold.feasible, warm.energy_overhead - cold.energy_overhead, 0.0)
    )
    assert float(err.max(initial=0.0)) <= ENERGY_ATOL
    cold_rows = ~warm.warm & cold.feasible
    assert np.array_equal(
        warm.energy_overhead[cold_rows], cold.energy_overhead[cold_rows]
    )
    stats = warm.stats
    assert stats.warm + stats.anchors + stats.boundary + stats.fallback == stats.n
    assert stats.n == len(rhos)
    return warm


class TestGridTake:
    def test_subset_rows_byte_identical(self, hera_xscale):
        points = [
            (hera_xscale, TwoSpeed(0.4, 0.8 + 0.02 * i), None) for i in range(7)
        ]
        grid = ScheduleGrid.from_points(points)
        idx = np.array([5, 1, 3])
        sub = grid.take(idx)
        assert sub.n == 3
        work = np.logspace(2, 4, 9)
        full = grid.evaluate(work)
        part = sub.evaluate(work)
        assert np.array_equal(full.time[idx], part.time)
        assert np.array_equal(full.energy[idx], part.energy)

    def test_duplicate_indices_rejected(self, hera_xscale):
        grid = ScheduleGrid.from_points(_sweep_points(hera_xscale, 4))
        with pytest.raises(InvalidParameterError, match="unique"):
            grid.take([1, 1, 2])


class TestIncrementalOptions:
    def test_defaults_valid(self):
        opt = IncrementalOptions()
        assert opt.anchor_stride >= 2
        assert opt.solver == DEFAULT_SOLVER_OPTIONS

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"anchor_stride": 1}, "anchor_stride"),
            ({"anchor_span": 0.0}, "anchor_span"),
            ({"anchor_span": float("inf")}, "anchor_span"),
            ({"min_chain": 2}, "min_chain"),
            ({"bracket_factor": 1.0}, "bracket_factor"),
            ({"bracket_factor": float("nan")}, "bracket_factor"),
            ({"root_iters": 3}, "root_iters"),
            ({"golden_iters": 1}, "golden_iters"),
            ({"probe_rtol": 0.0}, "probe_rtol"),
            ({"probe_rtol": 1e-6}, "probe_rtol"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(InvalidParameterError, match=match):
            IncrementalOptions(**kwargs)


class TestSolverOptions:
    def test_defaults_change_nothing(self, hera_xscale):
        """A default-constructed options object is the historical solver."""
        grid = ScheduleGrid.from_points(_sweep_points(hera_xscale, 12))
        rhos = np.linspace(2.8, 5.0, 12)
        base = solve_schedule_grid(grid, rhos)
        explicit = solve_schedule_grid(grid, rhos, options=SolverOptions())
        assert SolverOptions() == DEFAULT_SOLVER_OPTIONS
        for field in ("work", "energy_overhead", "time_overhead",
                      "w_lo", "w_hi", "rho_min", "feasible"):
            assert np.array_equal(getattr(base, field), getattr(explicit, field))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"w_lo": 0.0}, "w_lo"),
            ({"w_lo": float("inf")}, "w_lo"),
            ({"w_hi": 1.0, "w_lo": 2.0}, "w_hi"),
            ({"coarse": 2}, "coarse"),
            ({"bisect_iters": 0}, "bisect_iters"),
            ({"golden_iters": 1}, "golden_iters"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(InvalidParameterError, match=match):
            SolverOptions(**kwargs)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("name", configuration_names())
    def test_catalog_rho_sweep(self, name):
        cfg = get_configuration(name)
        n = 64
        rhos = np.linspace(2.8, 5.5, n)
        warm = _assert_matches_cold(_sweep_points(cfg, n), rhos)
        assert warm.stats.warm > 0  # dense chains actually warm-start

    def test_scrambled_order_recovered_by_chaining(self, hera_xscale):
        n = 48
        rhos = np.linspace(2.8, 5.0, n)
        perm = np.random.default_rng(7).permutation(n)
        _assert_matches_cold(_sweep_points(hera_xscale, n), rhos[perm])

    def test_two_axis_grid_chains_per_rate(self, hera_xscale):
        rates = np.logspace(-6, -4, 4)
        n_rhos = 24
        points = [
            (hera_xscale.with_error_rate(float(rate)), SCHEDULE, None)
            for rate in rates
            for _ in range(n_rhos)
        ]
        rhos = np.tile(np.linspace(2.8, 5.0, n_rhos), len(rates))
        warm = _assert_matches_cold(points, rhos)
        assert warm.stats.chains == len(rates)

    def test_short_chain_solved_all_cold(self, hera_xscale):
        n = 5  # below min_chain: every row is an anchor
        rhos = np.linspace(3.0, 4.0, n)
        warm = _assert_matches_cold(_sweep_points(hera_xscale, n), rhos)
        assert warm.stats.warm == 0
        assert warm.stats.anchors == n
        cold = solve_schedule_grid(
            ScheduleGrid.from_points(_sweep_points(hera_xscale, n)), rhos
        )
        assert np.array_equal(warm.energy_overhead, cold.energy_overhead)

    def test_min_chain_override_forces_cold(self, hera_xscale):
        n = 30
        rhos = np.linspace(2.8, 4.5, n)
        sol = solve_schedule_grid_incremental(
            ScheduleGrid.from_points(_sweep_points(hera_xscale, n)),
            rhos,
            options=IncrementalOptions(min_chain=n + 1),
        )
        assert sol.stats.warm == 0
        assert not sol.warm.any()

    def test_small_stride_still_correct(self, hera_xscale):
        n = 40
        rhos = np.linspace(2.8, 4.5, n)
        grid = ScheduleGrid.from_points(_sweep_points(hera_xscale, n))
        cold = solve_schedule_grid(grid, rhos)
        sol = solve_schedule_grid_incremental(
            grid,
            rhos,
            options=IncrementalOptions(anchor_stride=4),
        )
        err = np.abs(sol.energy_overhead - cold.energy_overhead)
        assert float(np.nanmax(err)) <= ENERGY_ATOL

    def test_scalar_rho_broadcasts(self, hera_xscale):
        sol = solve_schedule_grid_incremental(
            ScheduleGrid.from_points(_sweep_points(hera_xscale, 12)), 3.0
        )
        assert sol.stats.n == 12
        assert np.all(sol.feasible)

    def test_nonpositive_rho_rejected(self, hera_xscale):
        with pytest.raises(InvalidParameterError, match="rho"):
            solve_schedule_grid_incremental(
                ScheduleGrid.from_points(_sweep_points(hera_xscale, 4)),
                np.array([3.0, -1.0, 3.0, 3.0]),
            )

    def test_warm_rows_carry_nan_rho_min(self, hera_xscale):
        n = 64
        rhos = np.linspace(2.8, 5.5, n)
        sol = _assert_matches_cold(_sweep_points(hera_xscale, n), rhos)
        assert sol.stats.warm > 0
        assert np.all(np.isnan(sol.rho_min[sol.warm]))
        cold_feasible = ~sol.warm & sol.feasible
        assert np.all(np.isfinite(sol.rho_min[cold_feasible]))

    def test_feasibility_boundary_sweep(self, hera_xscale):
        n = 32
        rhos = np.linspace(1.0, 4.0, n)
        warm = _assert_matches_cold(_sweep_points(hera_xscale, n), rhos)
        assert not warm.feasible[0]
        assert warm.feasible[-1]


class TestStats:
    def test_cold_and_warm_fraction(self):
        stats = IncrementalStats(
            n=100, chains=2, anchors=10, warm=80, boundary=4, fallback=6
        )
        assert stats.cold == 20
        assert stats.warm_fraction == pytest.approx(0.8)

    def test_empty_grid_warm_fraction_zero(self):
        stats = IncrementalStats(
            n=0, chains=0, anchors=0, warm=0, boundary=0, fallback=0
        )
        assert stats.warm_fraction == 0.0


class TestBackendIntegration:
    def test_registered_and_capable(self):
        from repro.api import available_backends
        from repro.api.backends import get_backend

        assert "schedule-grid-incremental" in available_backends()
        backend = get_backend("schedule-grid-incremental")
        assert backend.batched
        assert backend.sweep_aware

    @pytest.mark.parametrize(
        "name", ["schedule-grid-incremental", "schedule-grid"]
    )
    def test_concurrent_sweeps_match_serial_solves(self, name):
        """Threads share a registered backend instance (as the service's
        job workers do): each thread's sweep must come back exactly as
        its serial solve did."""
        import os
        import sys
        import threading

        from repro.api import Scenario
        from repro.api.backends import get_backend

        backend = get_backend(name)
        sweeps = [
            [
                Scenario(config="hera-xscale", rho=float(r), schedule=SCHEDULE)
                for r in np.linspace(2.8, 4.5, 40)
            ],
            [
                Scenario(
                    config="atlas-crusoe",
                    rho=float(r),
                    error_rate=3e-5,
                    schedule="esc:0.4,0.6,0.8",
                )
                for r in np.linspace(3.0, 6.0, 30)
            ],
        ]

        def fields(results):
            return [
                (
                    r.feasible,
                    r.rho_min,
                    None
                    if r.best is None
                    else (
                        r.best.work,
                        r.best.energy_overhead,
                        r.best.time_overhead,
                        r.best.interval,
                    ),
                )
                for r in results
            ]

        serial = [fields(backend.solve_batch(sweep)) for sweep in sweeps]
        assert any(f[0] for f in serial[0]) and any(f[0] for f in serial[1])
        # More threads than cores and a short switch interval, so the
        # batches interleave finely inside the shared instance.
        n_threads = min(2 * (os.cpu_count() or 2), 8)
        start = threading.Barrier(n_threads)
        threaded: list[list] = [[] for _ in range(n_threads)]

        def worker(k: int) -> None:
            start.wait(timeout=60)
            for _ in range(2):
                threaded[k].append(fields(backend.solve_batch(sweeps[k % 2])))

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, runs in enumerate(threaded):
            assert runs == [serial[k % 2]] * 2
