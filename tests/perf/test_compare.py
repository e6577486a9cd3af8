"""The per-workload gate rule and the harness command line."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.harness.__main__ import main
from benchmarks.harness.report import (
    BOUND,
    BenchReport,
    WorkloadStats,
    compare_reports,
    judge,
)
from benchmarks.harness.workloads import build_suite, suite_names
from repro.exceptions import InvalidParameterError


def _stats(name: str, median: float, *, spread: float = 0.05) -> WorkloadStats:
    return WorkloadStats(
        name=name,
        times=(median, median, median),
        refs=(0.006, 0.006, 0.006),
        median=median,
        ci=(median * (1 - spread), median * (1 + spread)),
    )


def _report(*workloads: WorkloadStats, name: str = "suite") -> BenchReport:
    return BenchReport(name=name, workloads=workloads, repetitions=3, warmup=1)


def _verdicts(base: BenchReport, cur: BenchReport) -> dict[str, str]:
    return {v.workload: v.verdict for v in compare_reports(base, cur)}


def test_compare_verdicts() -> None:
    base = _report(_stats("slow", 1.0), _stats("near", 1.0), _stats("fast", 1.0),
                   _stats("noisy", 1.0))
    cur = _report(
        # Adjusted 2x slower, disjoint CIs: a regression.
        _stats("slow", 2.0),
        # Slower with disjoint CIs, but within BOUND: not a regression.
        _stats("near", 0.5 * (1.0 + BOUND)),
        # 2x faster with disjoint CIs: an improvement.
        _stats("fast", 0.5),
        # 2x slower but the CIs overlap: indistinguishable.
        _stats("noisy", 2.0, spread=0.6),
    )
    assert BOUND < 2.0, "a 2x slowdown must be able to fail the gate"
    assert _verdicts(base, cur) == {
        "slow": "regression",
        "near": "indistinguishable",
        "fast": "improvement",
        "noisy": "indistinguishable",
    }
    [slow] = [v for v in compare_reports(base, cur) if v.verdict == "regression"]
    assert slow.describe().startswith("suite/slow: regression")


def test_verdict_ignores_other_workloads() -> None:
    """A workload is judged only on its own entry: when another
    workload of the suite gets 10x faster, its verdict does not move."""
    base = _report(_stats("loop", 1.0), _stats("kernel", 0.1), _stats("slower", 0.1))
    same = _report(_stats("loop", 1.0), _stats("kernel", 0.1), _stats("slower", 0.25))
    faster_loop = replace(same, workloads=(_stats("loop", 0.1), *same.workloads[1:]))
    assert _verdicts(base, faster_loop)["loop"] == "improvement"
    for name in ("kernel", "slower"):
        assert _verdicts(base, faster_loop)[name] == _verdicts(base, same)[name]
    assert _verdicts(base, same)["slower"] == "regression"
    assert judge(_stats("x", 1.0), _stats("x", 1.0)) == "indistinguishable"


def test_compare_skips_unshared_workloads() -> None:
    base = _report(_stats("loop", 10.0))
    cur = _report(_stats("loop", 10.0), _stats("new", 1.0))
    assert [v.workload for v in compare_reports(base, cur)] == ["loop"]


def test_compare_rejects_suite_mismatch() -> None:
    with pytest.raises(InvalidParameterError):
        compare_reports(
            _report(_stats("a", 1.0), name="x"),
            _report(_stats("a", 1.0), name="y"),
        )


def test_committed_baselines_cover_every_gated_workload() -> None:
    """Every quick workload appears in its suite's committed baseline.
    The gate skips unshared workloads, so a renamed workload would
    otherwise escape it without a word."""
    baselines = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    for name in suite_names():
        committed = BenchReport.load(baselines / f"BENCH_{name}.json")
        wanted = {w.name for w in build_suite(name, quick=True)}
        assert wanted == {w.name for w in committed.workloads}, name


def test_suite_registry() -> None:
    assert suite_names() == (
        "schedule_grid", "error_models", "experiment_plan", "study_batch",
        "dispatch_overhead", "service_dispatch",
    )
    for name in suite_names():
        names = [w.name for w in build_suite(name, quick=True)]
        assert len(names) == len(set(names))
    with pytest.raises(InvalidParameterError):
        build_suite("nope")


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def test_cli_bench_list(capsys) -> None:
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in suite_names():
        assert name in out


def test_cli_bench_run_and_gate(tmp_path, capsys) -> None:
    rc = main(["run", "study_batch", "--quick", "--reps", "2", "--out", str(tmp_path / "run1")])
    assert rc == 0
    first = BenchReport.load(tmp_path / "run1" / "BENCH_study_batch.json")
    assert first.name == "study_batch"

    def scaled(factor: float) -> BenchReport:
        return replace(first, workloads=tuple(
            replace(w, median=w.median * factor, ci=(w.ci[0] * factor, w.ci[1] * factor))
            for w in first.workloads
        ))

    # A real second run, gated against baselines 1000x slower and 1000x
    # faster than the first run: far outside run-to-run noise, so the
    # first gate passes and the second flags every workload.
    scaled(1e3).write(tmp_path / "slow_base")
    scaled(1e-3).write(tmp_path / "fast_base")
    capsys.readouterr()
    for base, expected_rc in (("slow_base", 0), ("fast_base", 1)):
        rc = main([
            "run", "study_batch", "--quick", "--reps", "2",
            "--out", str(tmp_path / f"run_{base}"), "--baseline-dir", str(tmp_path / base),
        ])
        out = capsys.readouterr().out
        assert rc == expected_rc, out
        if expected_rc:
            assert "REGRESSION: study_batch/firstorder_loop, study_batch/grid_backend" in out


def test_cli_bench_compare_exit_codes(tmp_path, capsys) -> None:
    base = _report(_stats("loop", 10.0), _stats("fast", 1.0))
    good = _report(_stats("loop", 10.0), _stats("fast", 1.05))
    bad = _report(_stats("loop", 10.0), _stats("fast", 3.0))
    base.write(tmp_path / "base")
    good.write(tmp_path / "good")
    bad.write(tmp_path / "bad")
    b = str(tmp_path / "base" / "BENCH_suite.json")
    assert main(["compare", b, str(tmp_path / "good" / "BENCH_suite.json")]) == 0
    assert main(["compare", b, str(tmp_path / "bad" / "BENCH_suite.json")]) == 1
    assert "REGRESSION: suite/fast" in capsys.readouterr().out


def test_cli_bench_compare_directories(tmp_path, capsys) -> None:
    base = _report(_stats("loop", 10.0), _stats("fast", 1.0))
    bad = _report(_stats("loop", 10.0), _stats("fast", 3.0))
    base.write(tmp_path / "base")
    base.write(tmp_path / "same")
    bad.write(tmp_path / "bad")
    assert main(["compare", str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    assert main(["compare", str(tmp_path / "base"), str(tmp_path / "bad")]) == 1
    assert "REGRESSION: suite/fast" in capsys.readouterr().out
    # No shared reports, or a file/directory mix, is a usage error.
    assert main(["compare", str(tmp_path / "base"), str(tmp_path)]) == 2
    assert main(["compare", str(tmp_path / "base"),
                 str(tmp_path / "base" / "BENCH_suite.json")]) == 2


def test_harness_refuses_schema_1_baseline(tmp_path, capsys) -> None:
    (tmp_path / "BENCH_suite.json").write_text('{"schema": "repro-bench/1", "name": "suite"}')
    _report(_stats("a", 1.0)).write(tmp_path / "cur")
    assert main(["compare", str(tmp_path / "BENCH_suite.json"),
                 str(tmp_path / "cur" / "BENCH_suite.json")]) == 2
    assert "re-record" in capsys.readouterr().err


def test_cli_bench_run_rejects_unknown_suite(tmp_path) -> None:
    with pytest.raises(SystemExit):
        main(["run", "nope", "--out", str(tmp_path)])
