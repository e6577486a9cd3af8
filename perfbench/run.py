"""Repository benchmark: end-to-end and per-layer numbers for three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service_jobs --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload schedule_sweep --seed 1 --seconds 30 --repeat 10

``--trace 0`` prints every end-to-end metric with its unit; ``--trace 1``
also traces the workload and prints every per-layer metric, each span's
self time and the tracing overhead.  ``--repeat N``
runs N seeds in a row and reports each metric's spread against the bound
in BENCHMARK.json.  The last line of output is one JSON document.
See README.md next to this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("paper_grid", "schedule_sweep", "service_jobs")
# Cold-interpreter set-ups measured per run, besides the measured one.
SETUP_PROBES = {"paper_grid": 2, "schedule_sweep": 2, "service_jobs": 1}
RUN_LIMIT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    # Artifact writers use tempfile: keep them inside the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def tail(values: list[float]) -> tuple[int, float]:
    """(percentile, value): p95, or the highest whole percentile that
    still has at least ten samples beyond it."""
    p = min(95, int(100 * (1 - 10 / len(values)))) if len(values) > 20 else 50
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------
def _library_child(workload: str, seed: int, seconds: float, trace: int, probe: bool):
    cmd = [
        sys.executable, str(HERE / "library.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(WORK),
    ]
    if probe:
        cmd.append("--probe")
    ref_s = hostspeed.reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready_line:
        raise RuntimeError(f"{workload} child failed (exit {code})")
    ready = json.loads(ready_line)["ready"]
    report = json.loads(rest.splitlines()[-1]) if not probe else {}
    return (ready_s, ref_s), ready, report


def run_library(workload: str, seed: int, seconds: float, trace: int) -> dict:
    probes = [
        _library_child(workload, seed, 0, 0, probe=True)
        for _ in range(SETUP_PROBES[workload] + 1)
    ][1:]  # the first one also writes the bytecode caches
    measured, ready, report = _library_child(workload, seed, seconds, trace, probe=False)
    setups = [p[0] for p in probes] + [measured]
    ops = report["ops"]
    # In a traced run the end-to-end figures come from the untraced operations.
    plain = [o for o in ops if not o["traced"]]
    # (raw seconds, host-speed reference) of each timed operation.
    timed = lambda kind: [
        (o["latency_s"], o["ref_s"]) for o in plain if o["kind"] == kind and not o.get("error")
    ]
    # A job is a fresh batch; cached replays only feed cached_job_s.
    fresh, cached = timed("fresh"), timed("cached")
    scenarios = next(o["scenarios"] for o in plain if o["kind"] == "fresh")

    def timing_metrics(adjust: bool) -> dict:
        median = lambda pairs: statistics.median(
            hostspeed.adjusted(t, ref) if adjust else t for t, ref in pairs
        )
        batch = median(fresh)
        return {
            "setup_s": (median(setups), "s"),
            "scenarios_per_s": (scenarios / batch, "1/s"),
            "jobs_per_s": (1.0 / batch, "1/s"),
            "fresh_job_s": (batch, "s"),
            "cached_job_s": (median(cached), "s"),
        }

    metrics, raw = timing_metrics(adjust=True), timing_metrics(adjust=False)
    metrics["success_share"] = (sum(1 for o in plain if not o.get("error")) / len(plain), "share")
    metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
    out = {
        "metrics": metrics,
        "raw": raw,
        "ops": ops,
        "check": report["check"],
        "samples": {"setup": len(setups), "jobs": len(fresh)},
    }
    if trace:
        t = report["trace"]
        # One operation is a traced fresh batch together with its replays,
        # so the figures do not move with the number of replays.
        traced_fresh = [o for o in ops if o["traced"] and o["kind"] == "fresh"]
        layers = layer_metrics(t["summary"], t["counters"], len(traced_fresh))
        layers["reporting.bytes"] = (
            statistics.mean(o.get("bytes", 0) for o in traced_fresh), "bytes/op"
        )
        layers["setup.import_s"] = (
            statistics.median([p[1]["import_s"] for p in probes] + [ready["import_s"]]), "s"
        )
        layers["trace.overhead"] = (t["overhead"], "ratio")
        out.update(layers=layers, summary=t["summary"], absent=t["absent"])
    return out


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def run_service(seed: int, seconds: float, trace: int) -> dict:
    import oracle
    import service

    env = _env()
    boots = []  # (raw seconds, host-speed reference)
    for _ in range(SETUP_PROBES["service_jobs"] + 1):
        probe = service.Server(ROOT, env)
        try:
            ref_s = hostspeed.reference_s()
            boots.append((probe.start(), ref_s))
        finally:
            probe.stop()
    boots = boots[1:]  # the first one also writes the bytecode caches

    # A traced run splits the window between an untraced and a traced server.
    window = seconds / 2 if trace else seconds

    def phase(trace_file: Path | None) -> tuple[tuple[float, float], dict, float]:
        server = service.Server(ROOT, env, trace_file)
        try:
            ref_s = hostspeed.reference_s()
            boot = (server.start(), ref_s)
            result = service.measure(server, seed, window, traced=trace_file is not None)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        return boot, result, rss

    boot, result, rss = phase(None)
    boots.append(boot)
    jobs = result["jobs"]
    traced = None
    if trace:
        trace_file = WORK / "trace-service_jobs.json"
        trace_file.unlink(missing_ok=True)
        traced_boot, traced, _ = phase(trace_file)
        boots.append(traced_boot)
        jobs = jobs + traced["jobs"]

    sys.path.insert(0, str(ROOT / "src"))
    first = result["first"] + (traced["first"] if traced else [])
    check = oracle.check_ops(first + jobs, service.SAMPLE_ROWS, random.Random(f"check {seed}"))
    plain = result["jobs"]
    ok = [j for j in plain if not j["error"]]
    lat = lambda kind: [j["latency_s"] for j in ok if kind in (None, j["kind"])]

    def timing_metrics(adjust: bool) -> dict:
        scale = lambda t, ref: hostspeed.adjusted(t, ref) if adjust else t
        refs = result["refs"]
        span = sum(scale(window / len(refs), ref) for ref in refs)
        each = lambda kind: [scale(j["latency_s"], j["ref_s"]) for j in ok if j["kind"] == kind]
        return {
            "setup_s": (statistics.median(scale(t, ref) for t, ref in boots), "s"),
            "scenarios_per_s": (sum(j["scenarios"] for j in ok) / span, "1/s"),
            "jobs_per_s": (len(ok) / span, "1/s"),
            # Means, not medians: a job's latency is bimodal (it ran alone,
            # or behind the other client's solve), and the median sits in
            # the gap between the modes, so it jumps from run to run.
            "fresh_job_s": (statistics.mean(each("fresh")), "s"),
            "cached_job_s": (statistics.mean(each("cached")), "s"),
        }

    metrics, raw = timing_metrics(adjust=True), timing_metrics(adjust=False)
    metrics["success_share"] = (len(ok) / len(plain), "share")
    metrics["peak_rss_mb"] = (rss, "MB")
    out = {
        "metrics": metrics,
        "raw": raw,
        "ops": jobs,
        "check": check,
        "samples": {"setup": len(boots), "jobs": len(ok)},
    }
    if trace:
        dump = json.loads(trace_file.read_text())
        tjobs = [j for j in traced["jobs"] if not j["error"]]
        n = max(dump["counters"].get("api.plans", 0), 1)
        layers = layer_metrics(dump["summary"], dump["counters"], n)
        pool_before = traced["stats_before"].get("pool") or {}
        pool_after = traced["stats_after"].get("pool") or {}
        for name in ("shard_retries", "worker_crashes", "inline_fallbacks"):
            layers[f"exec.{name}"] = (pool_after.get(name, 0) - pool_before.get(name, 0), "count")
        mean = lambda key: statistics.mean(j["result"][key] for j in tjobs)
        layers["service.job_exec_s"] = (mean("elapsed_seconds"), "s/op")
        layers["service.solve_wall_s"] = (mean("solve_wall_time"), "s/op")
        layers["service.http_overhead_s"] = (
            statistics.mean(j["latency_s"] - j["result"]["elapsed_seconds"] for j in tjobs), "s/op"
        )
        q, p95 = tail(lat(None))
        layers["service.job_p50_s"] = (statistics.median(lat(None)), "s")
        layers["service.job_p95_s"] = (p95, "s")
        layers["reporting.bytes"] = (statistics.mean(j["artifact_bytes"] for j in tjobs), "bytes/op")
        layers["setup.import_s"] = (dump["import_s"], "s")
        layers["setup.server_ready_s"] = (statistics.median(t for t, _ in boots), "s")
        traced_p50 = statistics.median(j["latency_s"] for j in tjobs)
        layers["trace.overhead"] = (traced_p50 / layers["service.job_p50_s"][0] - 1.0, "ratio")
        out.update(layers=layers, summary=dump["summary"], absent=dump["absent"], tail_q=q)
    return out


# ----------------------------------------------------------------------
# Per-layer metrics from the span summary
# ----------------------------------------------------------------------
def layer_metrics(summary: dict, counters: dict, n_ops: float) -> dict:
    """Self time and counts per operation, one entry per per-layer metric.

    Every per-layer metric is present; the ones a workload does not
    produce read 0, and the workload functions fill in those they measure
    outside the spans.
    """
    per_op = lambda span: summary.get(span, {}).get("self_s", 0.0) / n_ops
    count = lambda name: counters.get(name, 0.0) / n_ops
    requested = counters.get("api.requested", 0.0)
    lookups = counters.get("api.cache_lookups", 0.0)
    return {
        "core.evaluate_pair_calls": (summary.get("core.evaluate_pair", {}).get("calls", 0) / n_ops, "count/op"),
        "core.evaluate_pair_s": (per_op("core.evaluate_pair"), "s/op"),
        "schedules.grid_build_s": (per_op("schedules.grid_build"), "s/op"),
        "schedules.kernel_s": (per_op("schedules.kernel"), "s/op"),
        "schedules.kernel_rows": (count("schedules.kernel_rows"), "count/op"),
        "schedules.incremental_s": (per_op("schedules.incremental"), "s/op"),
        "schedules.warm_rows": (count("schedules.warm_rows"), "count/op"),
        "schedules.anchor_rows": (count("schedules.anchor_rows"), "count/op"),
        "schedules.fallback_rows": (count("schedules.fallback_rows"), "count/op"),
        "api.plan_compile_s": (per_op("api.plan_compile"), "s/op"),
        "api.dedup_ratio": (
            1.0 - counters.get("api.unique", 0.0) / requested if requested else 0.0, "ratio"
        ),
        "api.solve_batch_s.firstorder": (per_op("api.solve_batch.firstorder"), "s/op"),
        "api.solve_batch_s.schedule-grid": (per_op("api.solve_batch.schedule-grid"), "s/op"),
        "api.execute_self_s": (per_op("api.execute"), "s/op"),
        "api.cache_get_s": (per_op("api.cache_get"), "s/op"),
        "api.cache_put_s": (per_op("api.cache_put"), "s/op"),
        "api.cache_hit_ratio": (
            counters.get("api.cache_hits", 0.0) / lookups if lookups else 0.0, "ratio"
        ),
        "exec.prepare_s": (per_op("exec.prepare"), "s/op"),
        "exec.harvest_wait_s": (per_op("exec.harvest_wait"), "s/op"),
        "exec.shards": (count("exec.shards"), "count/op"),
        "exec.shard_retries": (0, "count"),
        "exec.worker_crashes": (0, "count"),
        "exec.inline_fallbacks": (0, "count"),
        "analysis.verbs_s": (per_op("analysis.verbs"), "s/op"),
        "reporting.csv_s": (per_op("reporting.csv"), "s/op"),
        "reporting.json_s": (per_op("reporting.json"), "s/op"),
        "reporting.bytes": (0, "bytes/op"),
        "service.spec_parse_s": (per_op("service.spec_parse"), "s/op"),
        "service.job_exec_s": (0, "s/op"),
        "service.solve_wall_s": (0, "s/op"),
        "service.artifact_put_s": (per_op("service.artifact_put"), "s/op"),
        "service.http_overhead_s": (0, "s/op"),
        "service.job_p50_s": (0, "s"),
        "service.job_p95_s": (0, "s"),
        "setup.import_s": (0, "s"),
        "setup.server_ready_s": (0, "s"),
        "trace.overhead": (0, "ratio"),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def failures_by_kind(ops: list[dict]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for op in ops:
        if op.get("error"):
            kind = op["error"].split(":", 1)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def run_once(args) -> dict:
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    if args.workload == "service_jobs":
        out = run_service(args.seed, args.seconds, args.trace)
    else:
        out = run_library(args.workload, args.seed, args.seconds, args.trace)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ({out['samples']['jobs']} operations, "
          f"{out['samples']['setup']} set-ups)")
    failed = failures_by_kind(out["ops"])
    check = out["check"]
    print(f"output check: {check['checked']} rows re-solved by the oracle, "
          f"{check['compared']} compared with the operation they repeat, "
          f"{len(check['mismatches'])} mismatches")
    for problem in check["mismatches"][:10]:
        print(f"  mismatch: {problem}")
    print(f"failed operations by kind: {json.dumps(failed) if failed else 'none'}")
    print("end-to-end metrics (times at the nominal host speed; unadjusted in brackets):")
    for name, (value, unit) in out["metrics"].items():
        unadjusted = f"({out['raw'][name][0]:.6g})" if name in out["raw"] else ""
        print(f"  {name:24s} {value:14.6g} {unit:6s} {unadjusted}")
    if args.trace:
        import tracing

        print("per-layer metrics (per operation; -> end-to-end metric, workload it should move):")
        for name, (value, unit) in out["layers"].items():
            e2e, where = tracing.PREDICTIONS.get(name, ("", ""))
            print(f"  {name:34s} {value:14.6g} {unit:9s} -> {e2e} on {where}")
        if "tail_q" in out:
            print(f"  (service.job_p95_s is p{out['tail_q']} of the untraced jobs)")
        print("spans (calls, total s, self s):")
        for name, row in sorted(out["summary"].items()):
            print(f"  {name:34s} {row['calls']:9d} {row['total_s']:11.4f} {row['self_s']:11.4f}")
        for target, reason in out["absent"].items():
            print(f"  absent: {target} ({reason})")
    attempted = len(out["ops"])
    n_failed = sum(1 for op in out["ops"] if op.get("error"))
    metrics = out["layers"] if args.trace else out["metrics"]
    return {
        "correct": not check["mismatches"],
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def repeat(args) -> dict:
    """Run ``args.repeat`` seeds and report each metric's spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for i in range(args.repeat):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed + i), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"run with seed {args.seed + i} failed")
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {args.seed + i}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {}
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6} {verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    return summary


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and report the spread of each metric")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.repeat:
        print(json.dumps(repeat(args)))
        return 0
    # A run must end within 180 s even if the program hangs:
    # the alarm raises TimeoutError, and every child is stopped on the way out.
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run_once(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
