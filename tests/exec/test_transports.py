"""Unit contracts of the transport layer (:mod:`repro.exec`).

Crash/fault *integration* coverage lives in test_crash_recovery.py;
here we pin the seams: the resolve mapping, the inline outcome
semantics, the warm pool's acquire/release, recycling and degradation
machinery, and process execution against the sequential path.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api.experiment import Experiment
from repro.api.scenario import Scenario
from repro.exceptions import InvalidParameterError
from repro.exec import (
    InlineTransport,
    Shard,
    WarmWorkerPool,
    default_pool_or_none,
    get_default_pool,
    resolve_transport,
    shutdown_default_pool,
    solve_shard_inline,
)
from repro.exec import warm

from .conftest import CHAOS_BACKEND


class TestResolveTransport:
    def test_none_maps_to_processes_semantics(self):
        assert isinstance(resolve_transport(None, None), InlineTransport)
        assert isinstance(resolve_transport(None, 1), InlineTransport)
        # processes > 1: a fresh pool for the call, never the default
        # pool, and no workers until a plan starts them.
        fresh = resolve_transport(None, 3)
        assert isinstance(fresh, WarmWorkerPool)
        assert fresh.max_workers == 3
        assert fresh is not default_pool_or_none()
        assert resolve_transport(None, 3) is not fresh
        assert not fresh.status().started

    def test_strings_select_kinds(self):
        assert isinstance(resolve_transport("inline", 4), InlineTransport)
        try:
            warm = resolve_transport("warm", 2)
            assert isinstance(warm, WarmWorkerPool)
            # The default pool is process-wide: same object on re-resolve.
            assert resolve_transport("warm", None) is warm
        finally:
            shutdown_default_pool()

    def test_instance_passes_through(self):
        tp = InlineTransport()
        assert resolve_transport(tp, 8) is tp

    @pytest.mark.parametrize("kind", ["teleport", "pooled"])
    def test_unknown_string_raises_typed(self, kind):
        with pytest.raises(InvalidParameterError, match="'inline', 'warm'"):
            resolve_transport(kind, None)


class TestInlineTransport:
    def _scenarios(self, hera_xscale):
        return [
            Scenario(config=hera_xscale, rho=2.5 + 0.5 * i) for i in range(3)
        ]

    def test_outcomes_in_submission_order(self, hera_xscale):
        scenarios = self._scenarios(hera_xscale)
        tp = InlineTransport()
        tp.prepare(scenarios)
        shards = [
            Shard(shard_id=i, backend="firstorder", indices=(i,))
            for i in range(3)
        ]
        for shard in shards:
            tp.submit_shard(shard)
        outcomes = list(tp.as_completed())
        tp.close()
        assert [o.shard.shard_id for o in outcomes] == [0, 1, 2]
        assert all(o.ok and o.worker == "inline" for o in outcomes)
        assert all(len(o.results) == 1 for o in outcomes)

    def test_shard_exception_becomes_error_outcome(self, chaos_scenarios):
        scenarios = chaos_scenarios(["poison"])
        shard = Shard(shard_id=0, backend=CHAOS_BACKEND, indices=(0,))
        outcome = solve_shard_inline(scenarios, shard)
        assert not outcome.ok
        assert outcome.results is None
        assert "poisoned" in str(outcome.error)

    def test_parallelism_is_one(self):
        assert InlineTransport().parallelism == 1
        assert WarmWorkerPool(max_workers=5).parallelism == 5


class TestWarmPoolMachinery:
    def test_acquire_release_lease_semantics(self):
        pool = WarmWorkerPool(max_workers=1)
        try:
            pool.start()
            worker = pool.acquire(timeout=5.0)
            assert worker is not None and worker.alive
            # The only worker is leased out: nothing to acquire.
            assert pool.acquire(timeout=0.0) is None
            pool.release(worker)
            again = pool.acquire(timeout=5.0)
            assert again is worker
            pool.release(again)
        finally:
            pool.shutdown()

    def test_status_lists_live_idle_workers_after_start(self):
        pool = WarmWorkerPool(max_workers=2)
        try:
            pool.start()
            status = pool.status()
        finally:
            pool.shutdown()
        assert status.started and status.healthy
        assert len(status.workers) == 2
        assert all(w.alive and not w.busy for w in status.workers)
        assert len({w.pid for w in status.workers}) == 2
        assert status.worker_crashes == 0

    def test_acquire_waits_for_the_reply_of_a_busy_worker(self, chaos_scenarios):
        pool = WarmWorkerPool(max_workers=1)
        try:
            pool.prepare(chaos_scenarios(["sleep:0.6"]))
            pool.submit_shard(Shard(0, CHAOS_BACKEND, (0,)))
            # The only worker is solving: a short wait times out ...
            assert pool.acquire(timeout=0.1) is None
            # ... a long one returns the worker once its reply lands.
            worker = pool.acquire(timeout=10.0)
            assert worker is not None
            pool.release(worker)
            (outcome,) = list(pool.as_completed())
        finally:
            pool.shutdown()
        assert outcome.error is None
        assert outcome.results[0].feasible

    def test_reply_of_an_abandoned_plan_is_discarded(self, chaos_scenarios):
        pool = WarmWorkerPool(max_workers=2)
        try:
            pool.prepare(chaos_scenarios(["sleep:0.5"]))
            pool.submit_shard(Shard(0, CHAOS_BACKEND, (0,)))
            pool.close()  # abandoned: nobody harvests this plan
            second = chaos_scenarios(["sleep:1.5", ""], rho=3.5)
            pool.prepare(second)
            # Same shard id as the abandoned one, and still in flight
            # when the stale reply lands: only the epoch tells the two
            # replies apart.
            pool.submit_shard(Shard(0, CHAOS_BACKEND, (0, 1)))
            outcomes = list(pool.as_completed())
            status = pool.status()
        finally:
            pool.shutdown()
        (outcome,) = outcomes
        assert outcome.error is None
        assert [r.scenario.rho for r in outcome.results] == [s.rho for s in second]
        assert status.tasks_completed == 1
        assert status.worker_crashes == 0

    def test_shutdown_terminates_worker_busy_with_abandoned_shard(
        self, chaos_scenarios
    ):
        pool = WarmWorkerPool(max_workers=1)
        pool.prepare(chaos_scenarios(["sleep:60"]))
        pool.submit_shard(Shard(0, CHAOS_BACKEND, (0,)))
        (busy,) = pool.status().workers
        assert busy.busy
        start = time.monotonic()
        pool.shutdown(timeout=5.0)
        # Terminated at once rather than given the graceful timeout.
        assert time.monotonic() - start < 4.0
        with pytest.raises(ProcessLookupError):
            os.kill(busy.pid, 0)
        assert pool.status().workers == ()

    def test_max_tasks_recycling_replaces_workers(self, chaos_scenarios, monkeypatch):
        monkeypatch.setattr(warm, "MAX_TASKS_PER_WORKER", 1)
        pool = WarmWorkerPool(max_workers=2)
        try:
            exp = Experiment.from_scenarios(chaos_scenarios(["", "", "", ""]))
            results = exp.solve(cache=False, transport=pool)
            assert all(r.feasible for r in results)
            status = pool.status()
            assert status.tasks_completed == 4
            # Every task retires its worker; successors handled the
            # rest of the plan.
            assert status.workers_recycled >= 2
        finally:
            pool.shutdown()

    def test_unhealthy_pool_degrades_to_inline(self, chaos_scenarios, monkeypatch):
        def refuse(self):
            self._unhealthy = True
            return None

        monkeypatch.setattr(WarmWorkerPool, "_spawn_worker", refuse)
        pool = WarmWorkerPool(max_workers=2)
        try:
            exp = Experiment.from_scenarios(chaos_scenarios(["", "", ""]))
            results = exp.solve(cache=False, transport=pool)
            assert all(r.feasible for r in results)
            status = pool.status()
            assert not status.healthy
            assert status.inline_fallbacks == 3
            assert status.workers == ()
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_max_workers_rejected(self, workers):
        with pytest.raises(InvalidParameterError, match="max_workers must be >= 1"):
            WarmWorkerPool(max_workers=workers)

    def test_max_workers_none_is_the_cpu_capped_default(self):
        expected = max(1, min(8, os.cpu_count() or 1))
        assert WarmWorkerPool().max_workers == expected
        assert WarmWorkerPool(max_workers=None).parallelism == expected

    def test_status_describe_before_start(self):
        pool = WarmWorkerPool(max_workers=3)
        text = pool.status().describe()
        assert "not started" in text
        assert "max_workers=3" in text

    def test_pool_reuse_across_plans(self, chaos_scenarios):
        pool = WarmWorkerPool(max_workers=2)
        try:
            exp = Experiment.from_scenarios(chaos_scenarios(["", "", "", ""]))
            first = exp.solve(cache=False, transport=pool)
            pids = {w.pid for w in pool.status().workers}
            second = exp.solve(cache=False, transport=pool)
            # Same fleet served both plans: no respawn between them.
            assert {w.pid for w in pool.status().workers} == pids
            for a, b in zip(first, second):
                assert a.scenario == b.scenario
                assert a.best == b.best
        finally:
            pool.shutdown()


class TestDefaultPool:
    def test_default_pool_is_reused_and_shut_down(self):
        try:
            pool = get_default_pool(max_workers=2)
            assert get_default_pool() is pool
        finally:
            shutdown_default_pool()
        fresh = get_default_pool(max_workers=2)
        try:
            assert fresh is not pool
        finally:
            shutdown_default_pool()


def _two_config_experiment(name: str) -> Experiment:
    scenarios = [
        Scenario(config=cfg, rho=r)
        for cfg in ("hera-xscale", "atlas-crusoe")
        for r in (2.9, 3.1, 3.3)
    ]
    return Experiment.from_scenarios(scenarios, name=name)


def _assert_same_results(got, want) -> None:
    assert len(got) == len(want)
    for s, p in zip(want, got):
        assert p.feasible == s.feasible
        assert p.scenario == s.scenario
        if s.feasible:
            assert p.best == s.best


def test_processes_two_matches_sequential() -> None:
    """processes=2 (pickled shards on a pool the call owns) == sequential."""
    exp = _two_config_experiment("processes-test")
    _assert_same_results(exp.solve(cache=False, processes=2), exp.solve(cache=False))


def test_warm_pool_matches_sequential() -> None:
    """Shards over the warm pool's pipes == sequential."""
    exp = _two_config_experiment("warm-test")
    pool = WarmWorkerPool(max_workers=2)
    try:
        warm = exp.solve(cache=False, transport=pool)
    finally:
        pool.shutdown()
    _assert_same_results(warm, exp.solve(cache=False))
