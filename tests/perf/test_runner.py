"""run_suite: warmup/repetition discipline, host adjustment, the JSON schema."""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.harness.report import (
    MIN_REPETITION_S,
    SCHEMA,
    BenchReport,
    Workload,
    WorkloadStats,
    run_suite,
)
from perfbench.hostspeed import NOMINAL_S
from repro.exceptions import InvalidParameterError


def _counting_workloads():
    calls = {"a": 0, "b": 0}

    def a():
        calls["a"] += 1
        return {"rows": 7.0}

    def b():
        calls["b"] += 1
        return None

    return calls, (Workload("a", a), Workload("b", b))


def test_runner_call_counts_and_stats() -> None:
    calls = {"slow": 0}

    def slow():
        calls["slow"] += 1
        time.sleep(MIN_REPETITION_S)
        return {"rows": 7.0}

    report = run_suite("unit", (Workload("slow", slow),), repetitions=4, warmup=2)
    assert calls == {"slow": 6}, "warmup + one call per repetition"

    ws = report.workload("slow")
    assert len(ws.times) == len(ws.refs) == 4
    assert all(t >= MIN_REPETITION_S for t in ws.times)
    assert all(r > 0 for r in ws.refs), "a host reference beside every repetition"
    assert ws.ci[0] <= ws.median <= ws.ci[1]
    assert ws.metrics == {"rows": 7.0}
    assert report.environment["python"]


def test_runner_repeats_short_calls_and_records_time_per_call() -> None:
    calls, workloads = _counting_workloads()
    report = run_suite("unit", workloads, repetitions=2, warmup=0)
    assert calls["a"] > 2 and calls["b"] > 2
    for ws in report.workloads:
        assert all(t < MIN_REPETITION_S for t in ws.times)
    assert report.workload("b").metrics == {}


def test_host_adjustment_scales_each_repetition() -> None:
    """The same raw times under a host reference twice as slow read as
    half the adjusted time: a slow host is not a slow program."""
    times = (0.30, 0.10, 0.20)
    refs = (0.004, 0.006, 0.005)
    fast = WorkloadStats.measured("w", times, refs)
    slow = WorkloadStats.measured("w", times, [2 * r for r in refs])
    assert slow.median == pytest.approx(fast.median / 2, rel=1e-12)
    assert slow.ci == pytest.approx((fast.ci[0] / 2, fast.ci[1] / 2), rel=1e-12)
    # Each repetition is adjusted by its own reference before the median.
    per_rep = sorted(t * NOMINAL_S / r for t, r in zip(times, refs))
    assert fast.median == pytest.approx(per_rep[1], rel=1e-12)


def test_runner_rejects_empty_suite_and_bad_params() -> None:
    with pytest.raises(InvalidParameterError):
        run_suite("unit", (), repetitions=1, warmup=0)
    _, workloads = _counting_workloads()
    with pytest.raises(InvalidParameterError):
        run_suite("unit", workloads, repetitions=0)
    with pytest.raises(InvalidParameterError):
        run_suite("unit", workloads, warmup=-1)


def test_report_json_round_trip(tmp_path) -> None:
    _, workloads = _counting_workloads()
    report = run_suite("roundtrip", workloads, repetitions=3, warmup=0)

    path = report.write(tmp_path)
    assert path.name == "BENCH_roundtrip.json"
    assert BenchReport.load(path) == report

    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA == "repro-bench/2"
    assert [w["name"] for w in doc["workloads"]] == ["a", "b"]
    assert set(doc["workloads"][0]) == {
        "name", "times_s", "reference_s", "median_s", "ci_s", "metrics",
    }


def test_report_refuses_schema_1_with_re_record_hint() -> None:
    old = {"schema": "repro-bench/1", "name": "service_dispatch", "workloads": []}
    with pytest.raises(InvalidParameterError, match="re-record") as info:
        BenchReport.from_dict(old)
    assert "repro-bench/1" in str(info.value)
    assert "python -m benchmarks.harness run service_dispatch" in str(info.value)


def test_report_rejects_unknown_schema() -> None:
    with pytest.raises(InvalidParameterError):
        BenchReport.from_dict({"schema": "repro-bench/99"})


def test_report_workload_lookup_error() -> None:
    _, workloads = _counting_workloads()
    report = run_suite("unit", workloads, repetitions=1, warmup=0)
    with pytest.raises(InvalidParameterError):
        report.workload("nope")
