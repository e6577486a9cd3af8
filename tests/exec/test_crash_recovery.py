"""Crash-safe plan execution, end to end.

The contract under test (docs/execution.md): a worker crash, a
poisoned shard, or an interrupt never discards *other* shards'
finished work — every completed shard is cached the moment it lands,
so re-executing the plan replays the completed shards and solves only
the remainder.

The ``chaos`` backend (conftest) scripts the faults per scenario via
labels; the CI fault-injection job loops this suite to catch
intermittent hangs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.api.cache import SolveCache
from repro.api.experiment import Experiment, PlanProgress
from repro.exceptions import ConvergenceError, WorkerCrashError
from repro.exec import WarmWorkerPool, shutdown_default_pool

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _field_equal(a, b) -> None:
    """Result equality modulo wall-clock provenance."""
    assert a.scenario == b.scenario
    assert a.feasible == b.feasible
    assert a.rho_min == b.rho_min
    if a.feasible:
        assert a.best == b.best


@pytest.mark.parametrize("pool_served_before", [False, True])
def test_warm_worker_kill_is_retried_on_healthy_worker(
    chaos_scenarios, tmp_path, pool_served_before
):
    """The kill lands on a fresh fleet, or on one that already served a
    plan (so the retry runs under a later plan epoch)."""
    flag = tmp_path / "kill-once"
    scenarios = chaos_scenarios([f"kill:{flag}", "", "", "", ""])
    exp = Experiment.from_scenarios(scenarios, name="warm-kill")
    # Baseline first — the flag file does not exist yet, so the inline
    # run in *this* process solves the kamikaze scenario normally.
    expected = exp.solve(cache=False, transport="inline")

    pool = WarmWorkerPool(max_workers=2)
    try:
        if pool_served_before:
            # No flag yet: the same plan runs clean on the warm fleet.
            for got, want in zip(exp.solve(cache=False, transport=pool), expected):
                _field_equal(got, want)
            assert pool.status().worker_crashes == 0
        flag.touch()
        results = exp.solve(cache=False, transport=pool)
        status = pool.status()
    finally:
        pool.shutdown()

    # The first attempt killed its worker (consuming the flag file);
    # the retry on a healthy worker solved the shard for real.
    assert not flag.exists()
    assert status.worker_crashes >= 1
    assert status.shard_retries >= 1
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        _field_equal(got, want)


def test_warm_worker_kill_exhausts_retries_into_worker_crash_error(
    chaos_scenarios, tmp_path
):
    # Three flag files: the shard kills its worker on every attempt
    # (1 try + 2 retries), exhausting the default retry budget.
    flags = [tmp_path / f"kill-{i}" for i in range(3)]
    label = ";".join(f"kill:{flag}" for flag in flags)
    for flag in flags:
        flag.touch()
    scenarios = chaos_scenarios([label, "", "", ""])
    exp = Experiment.from_scenarios(scenarios, name="warm-kill-exhaust")

    cache = SolveCache()
    pool = WarmWorkerPool(max_workers=2)
    try:
        with pytest.raises(WorkerCrashError) as excinfo:
            exp.solve(cache=cache, transport=pool)
    finally:
        pool.shutdown()
    assert excinfo.value.lost_shards == 1
    assert excinfo.value.lost_scenarios == 1
    # The healthy shards' work survived the crash storm.
    assert len(cache) == 3


def test_idle_worker_killed_between_plans_is_replaced(chaos_scenarios):
    exp = Experiment.from_scenarios(chaos_scenarios(["", "", "", ""]), name="idle-kill")
    pool = WarmWorkerPool(max_workers=2)
    try:
        first = exp.solve(cache=False, transport=pool)
        victim = pool.status().workers[0].pid
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while any(w.pid == victim and w.alive for w in pool.status().workers):
            assert time.monotonic() < deadline, "SIGKILLed worker never died"
            time.sleep(0.01)
        second = exp.solve(cache=False, transport=pool)
        status = pool.status()
    finally:
        pool.shutdown()

    # The dead worker was replaced before any shard reached it, so no
    # shard needed a retry.
    assert status.worker_crashes == 1
    assert status.shard_retries == 0
    assert victim not in {w.pid for w in status.workers}
    assert len(status.workers) == 2
    assert all(w.alive for w in status.workers)
    for got, want in zip(second, first):
        _field_equal(got, want)


@pytest.mark.parametrize(
    "label, error_name",
    [("unpicklable", "UnpicklableError"), ("unloadable", "UnloadableError")],
)
def test_unpicklable_shard_error_becomes_runtime_error_summary(
    chaos_scenarios, label, error_name
):
    exp = Experiment.from_scenarios(chaos_scenarios([label, "", "", ""]), name=label)
    cache = SolveCache()
    pool = WarmWorkerPool(max_workers=2)
    try:
        with pytest.raises(RuntimeError) as excinfo:
            exp.solve(cache=cache, transport=pool)
        status = pool.status()
    finally:
        pool.shutdown()

    # The worker could not deliver the exception itself, so a plain
    # summary stands in for it; the worker survives and is released.
    assert type(excinfo.value) is RuntimeError
    assert error_name in str(excinfo.value)
    assert len(cache) == 3
    assert status.worker_crashes == 0
    assert not any(w.busy for w in status.workers)


def test_poisoned_shard_keeps_other_shards_cached(chaos_scenarios):
    scenarios = chaos_scenarios(["poison", "", "", "", ""])
    exp = Experiment.from_scenarios(scenarios, name="poisoned")
    cache = SolveCache()
    # The deterministic shard exception surfaces as-is (retrying it
    # would fail identically) — after the harvest drained.
    with pytest.raises(ConvergenceError):
        exp.solve(cache=cache, processes=2)
    assert len(cache) == 4

    # Re-executing the healthy remainder is pure cache replay...
    healthy = Experiment.from_scenarios(scenarios[1:], name="healthy")
    ticks: list[PlanProgress] = []
    replayed = healthy.solve(cache=cache, progress=ticks.append)
    assert ticks == []
    assert all(r.provenance.cache_hit for r in replayed)
    # ...byte-identical to an uninterrupted single-process run.
    expected = healthy.solve(cache=False)
    for got, want in zip(replayed, expected):
        _field_equal(got, want)


@pytest.mark.parametrize("resume_on_warm_pool", [False, True])
def test_killed_processes4_run_resumes_from_cache(
    chaos_scenarios, tmp_path, resume_on_warm_pool
):
    """The acceptance scenario: ``processes=4``, a shard that kills its
    worker on every attempt, re-execute → completed shards replay from
    cache, only the remainder is solved, final results equal the
    uninterrupted single-process run.  The resume runs on
    ``processes=4`` again or on a warm pool: the cache, not the
    transport, carries the progress."""
    # Three flag files: the kamikaze shard kills its worker on the
    # first try and on both retries, so the plan loses it.  It sleeps
    # first so the fast shards are harvested while it runs.
    flags = [tmp_path / f"kill-mid-plan-{i}" for i in range(3)]
    kills = ";".join(f"kill:{flag}" for flag in flags)
    scenarios = chaos_scenarios([f"sleep:0.5;{kills}"] + [""] * 7)
    exp = Experiment.from_scenarios(scenarios, name="acceptance")
    # Baseline before the flags exist: the inline run in this process
    # sleeps but does not kill.
    expected = exp.solve(cache=False, transport="inline")
    for flag in flags:
        flag.touch()

    cache = SolveCache()
    with pytest.raises(WorkerCrashError) as excinfo:
        exp.solve(cache=cache, processes=4)
    assert not any(flag.exists() for flag in flags)
    assert (excinfo.value.lost_shards, excinfo.value.lost_scenarios) == (1, 1)
    cached = len(cache)
    # Every other shard completed and was cached; the kamikaze shard
    # itself cannot be.
    assert cached == len(scenarios) - 1

    ticks: list[PlanProgress] = []
    if resume_on_warm_pool:
        pool = WarmWorkerPool(max_workers=4)
        try:
            resumed = exp.solve(cache=cache, transport=pool, progress=ticks.append)
        finally:
            pool.shutdown()
    else:
        resumed = exp.solve(cache=cache, processes=4, progress=ticks.append)
    # Only the remainder was solved on resume.
    assert ticks[-1].total_scenarios == len(scenarios) - cached
    assert len(cache) == len(scenarios)
    for got, want in zip(resumed, expected):
        _field_equal(got, want)


def test_processes2_sigkill_is_retried_and_matches_inline(chaos_scenarios, tmp_path):
    """``processes=N`` runs on a warm pool, so it gains the bounded crash
    retry: one SIGKILL costs a retry, not the shard."""
    flag = tmp_path / "kill-once"
    scenarios = chaos_scenarios([f"kill:{flag}", "", "", ""])
    exp = Experiment.from_scenarios(scenarios, name="processes-kill")
    expected = exp.solve(cache=False, transport="inline")
    flag.touch()
    results = exp.solve(cache=False, processes=2)
    assert not flag.exists()
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        _field_equal(got, want)


@pytest.mark.parametrize("crash", [False, True])
def test_processes_call_leaves_no_worker_behind(chaos_scenarios, tmp_path, crash):
    """The pool behind ``processes=2`` lives for the call only: no
    worker process survives it, whether the plan succeeds or raises."""
    shutdown_default_pool()  # its workers would be counted below
    label = ""
    if crash:
        flags = [tmp_path / f"kill-{i}" for i in range(3)]
        for flag in flags:
            flag.touch()
        label = ";".join(f"kill:{flag}" for flag in flags)
    exp = Experiment.from_scenarios(
        chaos_scenarios([label, "", "", ""]), name="no-leftovers"
    )
    if crash:
        with pytest.raises(WorkerCrashError):
            exp.solve(cache=False, processes=2)
    else:
        assert all(r.feasible for r in exp.solve(cache=False, processes=2))
    assert multiprocessing.active_children() == []


def test_progress_ticks_follow_completion_order(chaos_scenarios):
    """Satellite pin: a slow early shard no longer stalls the ticks of
    later shards, and the counters stay monotone with correct totals
    under out-of-order completion."""
    scenarios = chaos_scenarios(["sleep:0.8", "", "", ""])
    exp = Experiment.from_scenarios(scenarios, name="ordering")
    ticks: list[PlanProgress] = []
    stamps: list[float] = []

    def observe(tick: PlanProgress) -> None:
        ticks.append(tick)
        stamps.append(time.monotonic())

    results = exp.solve(cache=False, processes=2, progress=observe)
    assert all(r.feasible for r in results)

    assert [t.done_shards for t in ticks] == [1, 2, 3, 4]
    solved = [t.solved_scenarios for t in ticks]
    assert solved == sorted(solved) and len(set(solved)) == len(solved)
    assert ticks[-1].solved_scenarios == ticks[-1].total_scenarios == 4
    assert ticks[-1].total_shards == 4
    assert ticks[-1].fraction == 1.0
    # Completion order, not submission order: the fast shards ticked
    # while the slow first-submitted shard was still running.  Under
    # the old submission-order harvest every tick fired after the slow
    # future resolved, making this spread ~0.
    assert stamps[-1] - stamps[0] >= 0.3
