"""The CI-overlap comparison gate and the ``repro bench`` CLI."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.perf import BenchReport, WorkloadStats, compare_reports
from repro.perf.workloads import build_suite, suite_names


def _stats(
    name: str,
    median: float,
    *,
    baseline: str | None = None,
    speedup: float | None = None,
    speedup_ci: tuple[float, float] | None = None,
) -> WorkloadStats:
    return WorkloadStats(
        name=name,
        times=(median, median, median),
        median=median,
        ci=(median * 0.95, median * 1.05),
        baseline=baseline,
        speedup=speedup,
        speedup_ci=speedup_ci,
    )


def _report(*workloads: WorkloadStats, name: str = "suite") -> BenchReport:
    return BenchReport(
        name=name,
        workloads=workloads,
        repetitions=3,
        warmup=1,
        confidence=0.95,
    )


def test_compare_verdicts() -> None:
    base = _report(
        _stats("loop", 10.0),
        _stats("fast", 1.0, baseline="loop", speedup=10.0, speedup_ci=(9.0, 11.0)),
        _stats("same", 1.0, baseline="loop", speedup=10.0, speedup_ci=(9.0, 11.0)),
        _stats("better", 1.0, baseline="loop", speedup=10.0, speedup_ci=(9.0, 11.0)),
    )
    cur = _report(
        _stats("loop", 12.0),
        # Disjoint CI below the baseline's: regression.
        _stats("fast", 2.0, baseline="loop", speedup=5.0, speedup_ci=(4.0, 6.0)),
        # Overlapping CI: indistinguishable even though the median moved.
        _stats("same", 1.0, baseline="loop", speedup=10.5, speedup_ci=(9.5, 11.5)),
        # Disjoint CI above: improvement.
        _stats("better", 0.5, baseline="loop", speedup=20.0, speedup_ci=(18.0, 22.0)),
    )
    cmp_ = compare_reports(base, cur)
    verdicts = {w.name: w.verdict for w in cmp_.workloads}
    assert verdicts == {
        "loop": "informational",
        "fast": "regression",
        "same": "indistinguishable",
        "better": "improvement",
    }
    assert not cmp_.ok
    assert [w.name for w in cmp_.regressions] == ["fast"]
    assert [w.name for w in cmp_.improvements] == ["better"]
    assert "regression" in cmp_.workloads[1].describe()


def test_compare_skips_unshared_workloads() -> None:
    base = _report(_stats("loop", 10.0))
    cur = _report(
        _stats("loop", 10.0),
        _stats("new", 1.0, baseline="loop", speedup=10.0, speedup_ci=(9.0, 11.0)),
    )
    cmp_ = compare_reports(base, cur)
    assert [w.name for w in cmp_.workloads] == ["loop"]
    assert cmp_.ok


def test_compare_rejects_suite_mismatch() -> None:
    with pytest.raises(InvalidParameterError):
        compare_reports(
            _report(_stats("a", 1.0), name="x"),
            _report(_stats("a", 1.0), name="y"),
        )


def test_committed_baselines_cover_every_gated_workload() -> None:
    """Each suite's candidate workloads appear in its committed quick
    baseline, so the CI gate compares every one of them.  The gate skips
    unshared workloads, so a renamed workload would otherwise escape it
    without a word."""
    from pathlib import Path

    baselines = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    for name in suite_names():
        committed = BenchReport.load(baselines / f"BENCH_{name}.json")
        gated = {w.name for w in build_suite(name, quick=True) if w.baseline}
        assert gated <= {w.name for w in committed.workloads}, name


def test_suite_registry() -> None:
    assert suite_names() == (
        "schedule_grid", "error_models", "experiment_plan", "study_batch",
        "dispatch_overhead", "service_dispatch",
    )
    for name in suite_names():
        suite = build_suite(name, quick=True)
        names = [w.name for w in suite]
        assert len(names) == len(set(names))
        for wl in suite:
            if wl.baseline is not None:
                assert wl.baseline in names[: names.index(wl.name)], (
                    "baselines must be measured before their candidates"
                )
    with pytest.raises(InvalidParameterError):
        build_suite("nope")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_bench_list(capsys) -> None:
    from repro.cli import main

    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in suite_names():
        assert name in out


def test_cli_bench_run_and_gate(tmp_path, capsys) -> None:
    from dataclasses import replace

    from repro.cli import main

    out_dir = tmp_path / "run1"
    rc = main([
        "bench", "run", "study_batch", "--quick",
        "--reps", "2", "--warmup", "0", "--out", str(out_dir),
    ])
    assert rc == 0
    report_path = out_dir / "BENCH_study_batch.json"
    assert report_path.exists()
    first = BenchReport.load(report_path)
    assert first.name == "study_batch"

    def scaled(factor: float) -> BenchReport:
        """The first report with grid_backend's speedup and CI scaled."""
        return replace(first, workloads=tuple(
            replace(
                w,
                speedup=w.speedup * factor,
                speedup_ci=(w.speedup_ci[0] * factor, w.speedup_ci[1] * factor),
            )
            if w.name == "grid_backend" else w
            for w in first.workloads
        ))

    # A real second run, gated against baselines 1000x below and 1000x
    # above the first run's speedup: far outside run-to-run noise, so
    # the first gate passes and the second must flag the regression.
    scaled(1e-3).write(tmp_path / "slow_base")
    scaled(1e3).write(tmp_path / "fast_base")
    capsys.readouterr()
    for base, expected_rc in (("slow_base", 0), ("fast_base", 1)):
        rc = main([
            "bench", "run", "study_batch", "--quick",
            "--reps", "2", "--warmup", "0",
            "--out", str(tmp_path / f"run_{base}"),
            "--baseline-dir", str(tmp_path / base),
        ])
        out = capsys.readouterr().out
        assert rc == expected_rc, out
        assert ("REGRESSION" in out) == bool(expected_rc)


def test_cli_bench_compare_exit_codes(tmp_path, capsys) -> None:
    from repro.cli import main

    base = _report(
        _stats("loop", 10.0),
        _stats("fast", 1.0, baseline="loop", speedup=10.0, speedup_ci=(9.0, 11.0)),
    )
    good = _report(
        _stats("loop", 10.0),
        _stats("fast", 1.0, baseline="loop", speedup=10.5, speedup_ci=(9.5, 11.5)),
    )
    bad = _report(
        _stats("loop", 10.0),
        _stats("fast", 3.0, baseline="loop", speedup=3.0, speedup_ci=(2.5, 3.5)),
    )
    base.write(tmp_path / "base")
    good.write(tmp_path / "good")
    bad.write(tmp_path / "bad")
    b = str(tmp_path / "base" / "BENCH_suite.json")
    assert main(["bench", "compare", b,
                 str(tmp_path / "good" / "BENCH_suite.json")]) == 0
    assert main(["bench", "compare", b,
                 str(tmp_path / "bad" / "BENCH_suite.json")]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_bench_compare_directories(tmp_path, capsys) -> None:
    from repro.cli import main

    base = _report(
        _stats("loop", 10.0),
        _stats("fast", 1.0, baseline="loop", speedup=10.0, speedup_ci=(9.0, 11.0)),
    )
    bad = _report(
        _stats("loop", 10.0),
        _stats("fast", 3.0, baseline="loop", speedup=3.0, speedup_ci=(2.5, 3.5)),
    )
    base.write(tmp_path / "base")
    base.write(tmp_path / "same")
    bad.write(tmp_path / "bad")
    assert main(["bench", "compare", str(tmp_path / "base"),
                 str(tmp_path / "same")]) == 0
    assert main(["bench", "compare", str(tmp_path / "base"),
                 str(tmp_path / "bad")]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # A directory without shared reports (or a file/dir mix) is a
    # parameter error, not a traceback.
    with pytest.raises(InvalidParameterError):
        main(["bench", "compare", str(tmp_path / "base"), str(tmp_path)])
    with pytest.raises(InvalidParameterError):
        main(["bench", "compare", str(tmp_path / "base"),
              str(tmp_path / "base" / "BENCH_suite.json")])


def test_cli_bench_run_rejects_unknown_suite(tmp_path) -> None:
    from repro.cli import main

    with pytest.raises(InvalidParameterError):
        main(["bench", "run", "nope", "--out", str(tmp_path)])

