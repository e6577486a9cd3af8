#!/usr/bin/env python
"""Pluggable error models: Weibull/Gamma/trace arrivals end to end.

The paper assumes memoryless (exponential) error arrivals; real HPC
failure traces are famously Weibull with shape < 1.  Because recovery
restarts the arrival pattern, each attempt draws a fresh inter-arrival
— a renewal process — so the per-attempt evaluator generalises to any
arrival CDF.  This example:

1. compares the attempt-failure profile of exponential, Weibull, Gamma
   and trace-driven models at one MTBF;
2. solves the BiCrit problem under a Weibull model (speed pairs
   enumerated through the batched ``schedule-grid`` backend);
3. sweeps a mixed-model Experiment grid in one lockstep pass;
4. cross-checks the Gamma evaluator against a Monte-Carlo replay.

Run:
    python examples/error_models.py
"""

from __future__ import annotations

import repro
from repro.simulation import check_agreement

MTBF = 3e5  # seconds, around the catalog's hera-xscale rate


def main() -> None:
    cfg = repro.get_configuration("hera-xscale")
    rho = 3.0

    models = {
        "exponential": repro.parse_error_model(f"exp:mtbf={MTBF}"),
        "weibull 0.7": repro.parse_error_model(f"weibull:shape=0.7,mtbf={MTBF}"),
        "gamma 2": repro.parse_error_model(f"gamma:shape=2,mtbf={MTBF}"),
        "trace": repro.parse_error_model(
            "trace:times=2e4;9e4;1.5e5;4e5;8e5;2.1e6"
        ),
    }

    # 1. Same MTBF, very different per-attempt risk profiles.
    print(f"attempt failure probability at speed 0.4 (all MTBFs ~ {MTBF:.0e} s):")
    print(f"{'model':14s} {'W=1e3':>9s} {'W=1e4':>9s} {'W=1e5':>9s}")
    for name, model in models.items():
        probs = [
            model.attempt_failure_probability(w, 0.4, cfg.verification_time)
            for w in (1e3, 1e4, 1e5)
        ]
        print(f"{name:14s} " + " ".join(f"{p:>9.5f}" for p in probs))
    print("(shape<1 front-loads risk: short attempts fail *more* than exponential)")
    print()

    # 2. Solve under the Weibull model: no schedule given, so the DVFS
    # speed pairs are enumerated as TwoSpeed rows in one batched pass.
    weibull = models["weibull 0.7"].with_failstop_fraction(0.2)
    result = repro.Scenario(config=cfg, rho=rho, errors=weibull).solve()
    best = result.best
    print(f"Weibull solve  : {weibull.spec()}")
    print(f"backend        : {result.provenance.backend}")
    print(f"speed pair     : ({best.sigma1:g}, {best.sigma2:g})")
    print(f"pattern size   : Wopt = {best.work:.0f} work units")
    print(f"energy overhead: E/W  = {best.energy_overhead:.2f} mJ/work")
    print()

    # 3. A mixed-model grid under a geometric ramp — one lockstep pass.
    results = repro.Experiment.over(
        configs=(cfg,),
        rhos=rho,
        error_models=tuple(m.spec() for m in models.values()),
        schedules=("geom:0.4,1.5,1",),
        name="error-model-axis",
    ).solve()
    print("mixed-model grid under geom:0.4,1.5,1 "
          f"(backend: {', '.join(results.backends_used())}):")
    print(f"{'model':34s} {'W':>8s} {'E/W':>8s} {'T/W':>8s}")
    for res in results:
        spec = res.scenario.errors.spec()
        print(f"{spec[:34]:34s} {res.best.work:>8.0f} "
              f"{res.best.energy_overhead:>8.2f} {res.best.time_overhead:>8.4f}")
    print()

    # 4. Monte-Carlo cross-check: the simulator samples fresh
    # inter-arrivals per attempt through the model (amplified MTBF so
    # failures actually occur within the sample budget).
    gamma = repro.parse_error_model("gamma:shape=2,mtbf=2000,failstop=0.5")
    report = check_agreement(
        cfg, work=1500.0, sigma1=0.4, sigma2=0.8,
        errors=gamma, n=30_000, rng=20160601,
    )
    s = report.summary
    print(f"Monte-Carlo vs renewal evaluator ({gamma.spec()}, 30k samples):")
    print(f"  expected time   : {report.expected_time:.2f} s/pattern")
    print(f"  simulated time  : {s.mean_time:.2f} +- {s.sem_time:.2f} s "
          f"(z = {report.time_zscore:+.2f})")
    print(f"  expected energy : {report.expected_energy:.1f} mJ/pattern")
    print(f"  simulated energy: {s.mean_energy:.1f} +- {s.sem_energy:.1f} mJ "
          f"(z = {report.energy_zscore:+.2f})")
    ok = report.agrees()
    print(f"  agreement (|z| <= 4): {'PASS' if ok else 'FAIL'}")
    if not ok:  # pragma: no cover - deterministic seed keeps this false
        raise SystemExit(1)


if __name__ == "__main__":
    main()
