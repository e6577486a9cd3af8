"""``python -m benchmarks.harness {list,run,compare}`` (run from the repo root).

``run`` measures suites and writes ``BENCH_<suite>.json``; with
``--baseline-dir`` it judges each suite against the committed report of
the same name and exits 1 when any workload regresses.  ``compare``
judges two reports, or every report two directories share.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import InvalidParameterError

from .report import BenchReport, Verdict, compare_reports, median, run_suite
from .workloads import build_suite, suite_names


def _print_report(report: BenchReport) -> None:
    print(f"suite {report.name}: {report.repetitions} reps, warmup {report.warmup}")
    for ws in report.workloads:
        print(
            f"  {ws.name:20s} adjusted median {ws.median:9.4f}s "
            f"[{ws.ci[0]:.4f}, {ws.ci[1]:.4f}]  raw {median(ws.times):.4f}s"
        )


def _gate(verdicts: Sequence[Verdict]) -> list[str]:
    """Print every verdict; return the regressed ``suite/workload`` names."""
    for v in verdicts:
        print(f"  {v.describe()}")
    return [f"{v.suite}/{v.workload}" for v in verdicts if v.verdict == "regression"]


def _report_pairs(baseline: Path, current: Path) -> list[tuple[Path, Path]]:
    if baseline.is_dir() and current.is_dir():
        shared = sorted(
            p.name for p in baseline.glob("BENCH_*.json") if (current / p.name).exists()
        )
        if not shared:
            raise InvalidParameterError(
                f"no BENCH_*.json reports shared by {baseline} and {current}"
            )
        return [(baseline / n, current / n) for n in shared]
    if baseline.is_file() and current.is_file():
        return [(baseline, current)]
    raise InvalidParameterError(
        f"compare needs two BENCH_*.json files or two report directories, "
        f"got {baseline} and {current}"
    )


def _run(args: argparse.Namespace) -> list[str]:
    regressed: list[str] = []
    for name in args.suites or suite_names():
        report = run_suite(name, build_suite(name, quick=args.quick), repetitions=args.reps)
        _print_report(report)
        print(f"  wrote {report.write(args.out)}")
        if args.baseline_dir is None:
            continue
        base_path = Path(args.baseline_dir) / f"BENCH_{name}.json"
        if not base_path.exists():
            print(f"  no baseline {base_path}; skipping gate")
            continue
        regressed += _gate(compare_reports(BenchReport.load(base_path), report))
    return regressed


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="Repeated timed runs of the bench suites, gated per workload.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the suites and their workloads")
    p_run = sub.add_parser("run", help="measure suites and write BENCH_<suite>.json")
    p_run.add_argument("suites", nargs="*", help="suite names (default: all)")
    p_run.add_argument("--quick", action="store_true", help="reduced grids (CI smoke sizes)")
    p_run.add_argument("--reps", type=int, default=5, help="timed repetitions per workload")
    p_run.add_argument("--out", default="results", help="directory for BENCH_<suite>.json")
    p_run.add_argument(
        "--baseline-dir",
        default=None,
        help="judge each suite against BENCH_<suite>.json here; exit 1 on a regression",
    )
    p_cmp = sub.add_parser("compare", help="judge two reports (or report directories)")
    p_cmp.add_argument("baseline", type=Path)
    p_cmp.add_argument("current", type=Path)
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in suite_names():
            workloads = build_suite(name, quick=True)
            print(f"  {name:18s} {', '.join(w.name for w in workloads)}")
        return 0
    unknown = [n for n in getattr(args, "suites", ()) if n not in suite_names()]
    if unknown:
        parser.error(f"unknown suite(s) {', '.join(unknown)}; have: {', '.join(suite_names())}")
    try:
        if args.command == "run":
            regressed = _run(args)
        else:
            regressed = []
            for base, cur in _report_pairs(args.baseline, args.current):
                regressed += _gate(compare_reports(BenchReport.load(base), BenchReport.load(cur)))
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if regressed:
        print(f"REGRESSION: {', '.join(regressed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
