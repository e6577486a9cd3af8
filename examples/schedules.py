#!/usr/bin/env python
"""Per-attempt re-execution speed schedules: solve + simulate cross-check.

The paper fixes one speed for the first execution and one for all
re-executions.  The `SpeedSchedule` subsystem generalises that to any
eventually-constant per-attempt policy; this example solves the BiCrit
problem under a *geometric* ramp (each re-execution 1.5x faster,
clamped to the platform's top speed), cross-checks the exact
expectations against a Monte-Carlo replay of the same policy, and
compares the outcome with the paper's two-speed optimum.

Run:
    python examples/schedules.py
"""

from __future__ import annotations

import repro
from repro.schedules import evaluate_schedule


def main() -> None:
    cfg = repro.get_configuration("hera-xscale")
    rho = 3.0
    schedule = repro.Geometric(0.4, 1.5, sigma_max=1.0)

    print(f"configuration : {cfg.name}   (rho = {rho})")
    print(f"schedule      : {schedule.spec()}")
    print(f"attempt speeds: {schedule.speeds_for_attempts(5)} ...")
    print()

    # Solve through the unified API: the 'schedule-grid' backend finds the
    # energy-optimal pattern size under the exact attempt-series model.
    result = repro.Scenario(config=cfg, rho=rho, schedule=schedule).solve()
    best = result.best
    print(f"backend        : {result.provenance.backend}")
    print(f"pattern size   : Wopt = {best.work:.0f} work units")
    print(f"energy overhead: E/W  = {best.energy_overhead:.2f} mJ/work")
    print(f"time overhead  : T/W  = {best.time_overhead:.4f} s/work")
    print()

    # Cross-check: expected vs simulated energy for the geometric policy.
    expectation = evaluate_schedule(cfg, schedule, best.work)
    report = result.simulate(n=50_000, rng=20160601)
    s = report.summary
    print("model vs Monte-Carlo (50k samples, same per-attempt speeds):")
    print(f"  expected energy : {expectation.energy:.2f} mJ/pattern")
    print(f"  simulated energy: {s.mean_energy:.2f} +- {s.sem_energy:.2f} mJ "
          f"(z = {report.energy_zscore:+.2f})")
    print(f"  expected time   : {expectation.time:.2f} s/pattern")
    print(f"  simulated time  : {s.mean_time:.2f} +- {s.sem_time:.2f} s "
          f"(z = {report.time_zscore:+.2f})")
    print(f"  expected re-execs: {expectation.reexecutions:.4f}  "
          f"simulated: {s.mean_reexecutions:.4f}")
    ok = report.agrees()
    print(f"  agreement (|z| <= 4): {'PASS' if ok else 'FAIL'}")
    if not ok:  # pragma: no cover - deterministic seed keeps this false
        raise SystemExit(1)
    print()

    # How does the ramp compare with the paper's optimal two-speed pair?
    # Compare on the *exact* model both ways: the schedule solver reports
    # exact overheads, while the Theorem-1 winner's headline number is
    # first-order (its exact value rides along as energy_overhead_exact).
    paper = repro.Scenario(config=cfg, rho=rho).solve()
    paper_exact = paper.best.energy_overhead_exact
    print(f"paper optimum  : pair {paper.best.speed_pair}  "
          f"E/W = {paper_exact:.2f} mJ/work (exact model)")
    delta = (best.energy_overhead / paper_exact - 1) * 100
    print(f"geometric ramp : {delta:+.2f}% energy vs the two-speed optimum")
    print("(escalating re-executions buy back time that the bound rho")
    print(" then converts into a larger, cheaper pattern — or not: the")
    print(" solver quantifies the trade for any policy you can spec.)")


if __name__ == "__main__":
    main()
