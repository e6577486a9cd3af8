"""BenchRunner: warmup/repetition discipline and the JSON schema."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import InvalidParameterError
from repro.perf import BenchReport, BenchRunner, Workload
from repro.perf.runner import SCHEMA


def _counting_workloads():
    calls = {"base": 0, "cand": 0}

    def base():
        calls["base"] += 1
        return {"rows": 7.0}

    def cand():
        calls["cand"] += 1
        return None

    return calls, (
        Workload("base", base),
        Workload("cand", cand, baseline="base"),
    )


def test_runner_call_counts_and_stats() -> None:
    calls, workloads = _counting_workloads()
    runner = BenchRunner(repetitions=4, warmup=2)
    report = runner.run("unit", workloads)
    assert calls == {"base": 6, "cand": 6}, "warmup + repetitions each"

    base = report.workload("base")
    assert len(base.times) == 4
    assert base.ci[0] <= base.median <= base.ci[1]
    assert base.speedup is None and base.speedup_ci is None
    assert base.metrics == {"rows": 7.0}

    cand = report.workload("cand")
    assert cand.baseline == "base"
    assert cand.speedup is not None and cand.speedup_ci is not None
    assert cand.speedup_ci[0] <= cand.speedup_ci[1]
    assert report.environment["python"]


def test_runner_rejects_unmeasured_baseline() -> None:
    workloads = (Workload("cand", lambda: None, baseline="missing"),)
    with pytest.raises(InvalidParameterError):
        BenchRunner(repetitions=1, warmup=0).run("unit", workloads)


def test_runner_rejects_empty_suite_and_bad_params() -> None:
    with pytest.raises(InvalidParameterError):
        BenchRunner(repetitions=1, warmup=0).run("unit", ())
    with pytest.raises(InvalidParameterError):
        BenchRunner(repetitions=0)
    with pytest.raises(InvalidParameterError):
        BenchRunner(warmup=-1)


def test_report_json_round_trip(tmp_path) -> None:
    _, workloads = _counting_workloads()
    report = BenchRunner(repetitions=3, warmup=0).run("roundtrip", workloads)

    assert BenchReport.from_json(report.to_json()) == report

    path = report.write(tmp_path)
    assert path.name == "BENCH_roundtrip.json"
    assert BenchReport.load(path) == report

    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA
    assert [w["name"] for w in doc["workloads"]] == ["base", "cand"]
    assert "speedup" in doc["workloads"][1]


def test_report_rejects_unknown_schema() -> None:
    with pytest.raises(InvalidParameterError):
        BenchReport.from_json(json.dumps({"schema": "repro-bench/99"}))


def test_report_workload_lookup_error() -> None:
    _, workloads = _counting_workloads()
    report = BenchRunner(repetitions=1, warmup=0).run("unit", workloads)
    with pytest.raises(InvalidParameterError):
        report.workload("nope")
