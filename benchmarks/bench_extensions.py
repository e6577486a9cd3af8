"""Bench: the extension studies (beyond the paper's evaluated scope).

1. **Batched sweep speedup** — ``run_sweep`` (one batched pass of the
   Theorem-1 kernel) vs one standalone scalar solve per point on a
   figure-resolution sweep (equivalence is pinned in
   ``tests/analysis/test_pipeline_equivalence.py``; here we measure the
   gain).
2. **Multi-verification ablation** — how much energy can q > 1
   verifications per checkpoint save as the error rate grows.
3. **Pareto frontier** — frontier size/knee per configuration.
4. **Fail-stop fraction curve** — optimal energy vs f (the Section-5
   study the paper leaves open).
"""

from __future__ import annotations

import csv

import numpy as np

from repro.api import Experiment, Scenario
from repro.api.cache import clear_default_cache
from repro.core.feasibility import min_performance_bound_config
from repro.core.numeric import solve_bicrit_exact
from repro.extensions.multiverif import solve_bicrit_multiverif
from repro.platforms import configuration_names, get_configuration
from repro.sweep.axes import checkpoint_axis
from repro.sweep.fraction import sweep_failstop_fraction
from repro.sweep.runner import run_sweep


def _scalar_sweep(cfg, rho, axis):
    """One standalone two-speed and one-speed solve per axis value."""
    out = []
    for value in axis.values:
        cfg_v, rho_v = axis.apply(cfg, rho, value)
        out.append(tuple(
            Scenario(config=cfg_v, rho=rho_v, mode=mode).solve(cache=False).best
            for mode in ("silent", "single-speed")
        ))
    return out


class TestVectorisedSweep:
    def test_fast_path(self, benchmark):
        cfg = get_configuration("atlas-crusoe")
        axis = checkpoint_axis(n=200)
        # run_sweep solves through the process-wide solve cache: clear
        # it so every round solves the whole batch.
        def solve():
            clear_default_cache()
            return run_sweep(cfg, 3.0, axis)

        out = benchmark(solve)
        assert out.feasible_mask().all()

    def test_scalar_reference(self, benchmark):
        cfg = get_configuration("atlas-crusoe")
        axis = checkpoint_axis(n=200)
        out = benchmark.pedantic(
            _scalar_sweep, args=(cfg, 3.0, axis), rounds=1, iterations=1
        )
        assert len(out) == 200


def test_multiverif_ablation(benchmark, results_dir):
    """Energy gain from q > 1 as a function of the error rate."""
    base = get_configuration("hera-xscale")
    rates = [base.lam, 1e-5, 3e-5, 1e-4, 3e-4]

    def run_all():
        rows = []
        for rate in rates:
            cfg = base.with_error_rate(rate)
            multi = solve_bicrit_multiverif(cfg, 3.0, max_q=6)
            single = solve_bicrit_exact(cfg, 3.0)
            gain = (1 - multi.energy_overhead / single.energy_overhead) * 100
            rows.append((rate, multi.q, multi.sigma1, multi.sigma2,
                         multi.energy_overhead, single.energy_overhead, gain))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    with (results_dir / "extension_multiverif.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda", "best_q", "sigma1", "sigma2",
                    "energy_multi", "energy_single", "gain_percent"])
        for r in rows:
            w.writerow([f"{r[0]:.6g}", r[1], r[2], r[3],
                        f"{r[4]:.4f}", f"{r[5]:.4f}", f"{r[6]:.3f}"])
    # q = 1 is in the search space: the gain is never negative.
    for r in rows:
        assert r[6] >= -1e-6
    # At amplified rates the multi-verification gain becomes material.
    assert max(r[6] for r in rows) > 2.0
    print(f"\nbest multi-verif gain: {max(r[6] for r in rows):.2f}%")


def test_frontier_per_configuration(benchmark, results_dir):
    """Frontier per configuration: size, range, knee."""

    def frontier(name):
        cfg = get_configuration(name)
        rhos = np.linspace(min_performance_bound_config(cfg) * 1.0001, 10.0, 60)
        return Experiment.over(configs=(cfg,), rhos=rhos).solve().frontier(prune=False)

    def run_all():
        return {name: frontier(name) for name in configuration_names()}

    frontiers = benchmark.pedantic(run_all, rounds=1, iterations=1)
    with (results_dir / "extension_pareto.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["config", "points", "knee_rho", "knee_time", "knee_energy",
                    "min_energy", "max_energy"])
        for name, fr in frontiers.items():
            knee = fr.knee()
            w.writerow([name, len(fr), f"{knee.rho:.4f}",
                        f"{knee.time_overhead:.4f}", f"{knee.energy_overhead:.2f}",
                        f"{fr.energies.min():.2f}", f"{fr.energies.max():.2f}"])
    for fr in frontiers.values():
        assert np.all(np.diff(fr.energies) <= 1e-9)  # proper frontier
        assert len(fr) >= 2
    print(f"\nfrontier sizes: { {n: len(f) for n, f in frontiers.items()} }")


def test_failstop_fraction_curve(benchmark, results_dir):
    """Optimal energy vs fail-stop fraction (Hera/XScale, amplified rate)."""
    cfg = get_configuration("hera-xscale")

    def run():
        return sweep_failstop_fraction(
            cfg, 3.0, total_rate=5e-4, fractions=np.linspace(0, 1, 11)
        )

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    with (results_dir / "extension_fraction.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f", "sigma1", "sigma2", "work", "energy", "time"])
        for f, s1, s2, wk, e, t in zip(
            sweep.fractions, sweep.sigma1(), sweep.sigma2(),
            sweep.work(), sweep.energy_overhead(), sweep.time_overhead(),
        ):
            w.writerow([f"{f:.2f}", s1, s2, f"{wk:.1f}", f"{e:.2f}", f"{t:.4f}"])
    e = sweep.energy_overhead()
    assert np.all(np.isfinite(e))
    # Early detection pays: all-fail-stop is cheaper than all-silent.
    assert e[-1] < e[0]
    print(f"\nenergy falls {e[0]:.0f} -> {e[-1]:.0f} mJ/work as f goes 0 -> 1")
