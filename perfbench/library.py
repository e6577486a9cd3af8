"""Library workloads, run in their own interpreter: ``paper_grid`` and ``schedule_sweep``.

One operation is a batch a user runs through the public API: build the
``Experiment``, solve it with default routing and the inline transport,
run the analysis verbs, and write the CSV and JSON files.  Each *fresh*
batch (every rho shifted by a seeded sub-1e-6 offset, so nothing is in
the solve cache) is followed by *cached* replays of the batch just
solved (every scenario a cache hit).

Run by ``run.py``; standalone use::

    PYTHONPATH=src python3 perfbench/library.py --workload paper_grid --seed 1 --seconds 10

The last line of standard output is one JSON document for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import oracle

# Rows re-solved by the oracle per operation (two-speed rows are cheap,
# scalar schedule solves are not).
SAMPLE_ROWS = {"paper_grid": 24, "schedule_sweep": 4}
MIN_REPLAYS, MAX_REPLAYS = 2, 5
SWEEP_SCHEDULES = ("esc:0.4,0.6,0.8", "geom:0.4,1.5,1", "geom:0.8,0.5,1,0.2")
SWEEP_ERRORS = ("exp:mtbf=3e5", "weibull:shape=0.7,mtbf=3e5", "gamma:shape=2,mtbf=3e5")


def linspace(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def build_inputs(workload: str) -> dict:
    """The grid axes of one batch, before the per-batch rho shift."""
    import repro

    if workload == "paper_grid":
        return {
            "configs": tuple(repro.configuration_names()),
            "rhos": linspace(1.3, 3.5, 40),
            "error_rates": (None, 1e-5, 1e-4),
            "verbs": ("frontier",),
        }
    if workload == "schedule_sweep":
        return {
            "configs": ("hera-xscale",),
            "rhos": linspace(2.8, 5.5, 200),
            "schedules": SWEEP_SCHEDULES,
            "error_models": SWEEP_ERRORS,
            "verbs": ("frontier", "sensitivity"),
        }
    raise SystemExit(f"unknown library workload {workload!r}")


def run_batch(inputs: dict, rhos: list[float], out: Path) -> dict:
    """One operation, timed from building the Experiment to the files written."""
    import repro
    from repro.reporting.serialize import dump_json

    t0 = time.perf_counter()
    axes = {k: v for k, v in inputs.items() if k not in ("rhos", "verbs")}
    results = repro.Experiment.over(rhos=tuple(rhos), **axes).solve()
    analyses = {verb: getattr(results, verb)() for verb in inputs["verbs"]}
    results.to_csv(out / "results.csv")
    dump_json(out / "results.json", {"results": results.to_dicts()})
    for verb, analysis in analyses.items():
        analysis.to_json(out / f"{verb}.json")
    latency = time.perf_counter() - t0
    return {
        "latency_s": latency,
        "scenarios": len(results),
        "cache_hits": results.cache_hits(),
        "bytes": sum(p.stat().st_size for p in out.iterdir()),
        "csv": (out / "results.csv").read_text(),
    }


def measure(inputs: dict, seconds: float, rng: random.Random, out: Path, recorder=None) -> list[dict]:
    """Fresh batches, each followed by cached replays, until ``seconds`` of
    operation time.

    Replays of one batch stop once they took a tenth of its time (at
    least ``MIN_REPLAYS``, at most ``MAX_REPLAYS``), so a cheap replay path still gets
    enough samples.  The host-speed reference loop is timed right before
    each operation (``ref_s``).  A replay's rows are checked
    against its fresh batch's (``same_as``).  With a ``recorder``, every other
    batch and its replays are traced, so traced and untraced operations
    see the same host conditions.
    """
    ops: list[dict] = []
    spent = 0.0
    rounds = 0
    while not ops or spent < seconds:
        shift = rng.uniform(1e-9, 1e-6)
        rhos = [r + shift for r in inputs["rhos"]]
        traced = recorder is not None and rounds % 2 == 1
        if recorder is not None:
            recorder.enabled = traced
        rounds += 1
        replayed = 0.0
        for n, kind in enumerate(("fresh",) + ("cached",) * MAX_REPLAYS):
            ref_s = hostspeed.reference_s()
            try:
                op = run_batch(inputs, rhos, out)
            except Exception as exc:  # noqa: BLE001 - a failed batch is counted, not fatal
                op = {"latency_s": 0.0, "scenarios": 0, "error": f"{type(exc).__name__}: {exc}"}
            op.update(kind=kind, rhos=rhos, traced=traced, ref_s=ref_s)
            ops.append(op)
            spent += op["latency_s"]
            if op.get("error"):
                break
            if kind == "fresh":
                budget = op["latency_s"] / 10
                fresh_csv = op["csv"]
            else:
                op["same_as"] = fresh_csv
                replayed += op["latency_s"]
                if replayed >= budget and n >= MIN_REPLAYS:
                    break
    if recorder is not None:
        recorder.enabled = False
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true", help="set up, report, exit")
    parser.add_argument("--out", default=".perfbench_work")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is what setup measures

    setup = {"import_s": time.perf_counter() - t0}
    inputs = build_inputs(args.workload)
    # run.py times set-up up to this line.
    print(json.dumps({"ready": setup}), flush=True)
    if args.probe:
        return

    out = Path(args.out) / args.workload
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    # Warm-up: lazy imports and first-call costs are not what users wait
    # for on every batch.
    measure(inputs, 0.0, random.Random(f"warm-up {args.seed}"), out)

    report: dict = {}
    if args.trace:
        import tracing

        recorder = tracing.install()
        recorder.reset()
        ops = measure(inputs, args.seconds, rng, out, recorder)
        fresh = lambda traced: statistics.median(
            hostspeed.adjusted(o["latency_s"], o["ref_s"])
            for o in ops if o["kind"] == "fresh" and o["traced"] == traced
        )
        report["trace"] = {
            "summary": recorder.summary(),
            "counters": recorder.counters,
            "absent": recorder.absent,
            "overhead": fresh(True) / fresh(False) - 1.0,
        }
    else:
        ops = measure(inputs, args.seconds, rng, out)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["check"] = oracle.check_ops(ops, SAMPLE_ROWS[args.workload], random.Random(args.seed + 1))
    for op in ops:
        op.pop("rhos", None)
    report["ops"] = ops
    print(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
