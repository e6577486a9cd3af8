"""Memoisation: hit/miss provenance, private caches, eviction."""

from __future__ import annotations

import pytest

from repro.api import Experiment, Scenario, SolveCache
from repro.api.cache import DEFAULT_CACHE

#: Every registry name of the ``schedule-grid`` instance.
GRID_SPELLINGS = (
    "schedule-grid", "combined", "schedule-grid-jit", "schedule-grid-incremental",
)


@pytest.fixture
def cache() -> SolveCache:
    return SolveCache()


class TestProvenance:
    def test_hit_marks_provenance_and_reuses_solution(self, hera_xscale, cache):
        sc = Scenario(config=hera_xscale, rho=2.3456)
        first = sc.solve(cache=cache)
        second = sc.solve(cache=cache)
        assert not first.provenance.cache_hit
        assert first.provenance.wall_time > 0.0
        assert second.provenance.cache_hit
        assert second.provenance.wall_time == 0.0
        assert second.best is first.best  # replayed, not re-solved
        assert cache.stats() == (1, 1)

    def test_key_includes_backend(self, hera_xscale, cache):
        sc = Scenario(config=hera_xscale, rho=2.3456)
        sc.solve(backend="firstorder", cache=cache)
        exact = sc.solve(backend="exact", cache=cache)
        assert not exact.provenance.cache_hit  # different backend, fresh solve
        assert len(cache) == 2

    @pytest.mark.parametrize("first", GRID_SPELLINGS)
    def test_alias_shares_the_canonical_entry(self, cache, first):
        """An alias is a name, not a second cache namespace: whichever
        spelling of ``schedule-grid`` solves first, the others replay
        its entry, and invalidating the canonical name drops it."""
        sc = Scenario(config="hera-xscale", rho=3.0, schedule="geom:0.4,1.5,1")
        assert not sc.solve(backend=first, cache=cache).provenance.cache_hit
        for name in GRID_SPELLINGS:
            if name == first:
                continue
            assert sc.solve(backend=name, cache=cache).provenance.cache_hit
        assert len(cache) == 1
        assert cache.stats_by_backend() == {"schedule-grid": (3, 1)}
        assert cache.invalidate_backend("schedule-grid") == 1
        assert len(cache) == 0

    @pytest.mark.parametrize("spelling", GRID_SPELLINGS)
    def test_invalidate_by_any_spelling_drops_the_entry(self, cache, spelling):
        sc = Scenario(config="hera-xscale", rho=3.0, schedule="geom:0.4,1.5,1")
        sc.solve(backend="combined", cache=cache)
        assert cache.invalidate_backend(spelling) == 1
        assert len(cache) == 0

    def test_invalidate_alias_of_firstorder_and_unregistered_name(self, cache):
        Scenario(config="hera-xscale", rho=3.0).solve(backend="firstorder", cache=cache)
        cache.put(("sentinel",), "not-a-backend", object())
        assert cache.invalidate_backend("grid") == 1
        assert cache.invalidate_backend("not-a-backend") == 1
        assert len(cache) == 0

    def test_key_includes_scenario_fields(self, hera_xscale, cache):
        Scenario(config=hera_xscale, rho=2.3456).solve(cache=cache)
        other = Scenario(config=hera_xscale, rho=2.5678).solve(cache=cache)
        assert not other.provenance.cache_hit

    def test_cache_false_bypasses(self, hera_xscale, cache):
        sc = Scenario(config=hera_xscale, rho=2.3456)
        sc.solve(cache=cache)
        fresh = sc.solve(cache=False)
        assert not fresh.provenance.cache_hit
        assert cache.stats() == (0, 1)


class TestExperimentCaching:
    def test_second_experiment_solve_is_all_hits(self, cache):
        exp = Experiment.over(configs=("hera-xscale",), rhos=(2.5, 3.0))
        first = exp.solve(cache=cache)
        second = exp.solve(cache=cache)
        assert first.cache_hits() == 0
        assert second.cache_hits() == len(exp)
        assert second.total_wall_time() == 0.0

    def test_scenario_and_experiment_share_a_cache(self, hera_xscale, cache):
        Scenario(config=hera_xscale, rho=2.75).solve(cache=cache)
        exp = Experiment.from_scenarios((Scenario(config=hera_xscale, rho=2.75),))
        results = exp.solve(cache=cache)
        assert results.cache_hits() == 1


class TestSolveCacheMechanics:
    def test_eviction_drops_least_recent_without_hits(self, hera_xscale):
        small = SolveCache(maxsize=2)
        rhos = (2.1, 2.2, 2.3)
        for rho in rhos:
            Scenario(config=hera_xscale, rho=rho).solve(cache=small)
        assert len(small) == 2
        # Never-hit entries age in insertion order: 2.1 evicted.
        res = Scenario(config=hera_xscale, rho=2.1).solve(cache=small)
        assert not res.provenance.cache_hit

    def test_eviction_is_lru_hot_entry_survives(self, hera_xscale):
        # Regression for the FIFO cache: a *hot* entry (hit after
        # insertion) must outlive a colder, newer one.
        small = SolveCache(maxsize=2)
        Scenario(config=hera_xscale, rho=2.1).solve(cache=small)
        Scenario(config=hera_xscale, rho=2.2).solve(cache=small)
        # Touch 2.1: now 2.2 is the least recently used.
        assert Scenario(config=hera_xscale, rho=2.1).solve(cache=small).provenance.cache_hit
        Scenario(config=hera_xscale, rho=2.3).solve(cache=small)  # evicts 2.2
        assert Scenario(config=hera_xscale, rho=2.1).solve(cache=small).provenance.cache_hit
        assert not Scenario(config=hera_xscale, rho=2.2).solve(cache=small).provenance.cache_hit

    def test_lru_eviction_order_full_sequence(self, hera_xscale):
        # Pin the exact eviction order under interleaved hits: insert
        # a,b,c (maxsize 3), hit a, hit b, insert d -> c evicted; hit a,
        # insert e -> b evicted (a was refreshed twice).
        small = SolveCache(maxsize=3)
        a, b, c, d, e = (
            Scenario(config=hera_xscale, rho=r) for r in (2.1, 2.2, 2.3, 2.4, 2.5)
        )
        for sc in (a, b, c):
            sc.solve(cache=small)
        a.solve(cache=small)
        b.solve(cache=small)
        d.solve(cache=small)  # evicts c (LRU), not a (FIFO-oldest)
        assert a.solve(cache=small).provenance.cache_hit
        e.solve(cache=small)  # evicts b
        assert a.solve(cache=small).provenance.cache_hit
        assert d.solve(cache=small).provenance.cache_hit
        assert e.solve(cache=small).provenance.cache_hit
        assert not c.solve(cache=small).provenance.cache_hit

    def test_stats_semantics_unchanged_by_lru(self, hera_xscale):
        cache = SolveCache(maxsize=2)
        sc = Scenario(config=hera_xscale, rho=2.6)
        sc.solve(cache=cache)           # miss
        sc.solve(cache=cache)           # hit (refreshes recency)
        sc.solve(cache=cache)           # hit
        assert cache.stats() == (2, 1)
        assert cache.hits == 2 and cache.misses == 1

    def test_clear_resets_counters(self, hera_xscale):
        cache = SolveCache()
        Scenario(config=hera_xscale, rho=2.9).solve(cache=cache)
        Scenario(config=hera_xscale, rho=2.9).solve(cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == (0, 0)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            SolveCache(maxsize=0)

    def test_invalidate_backend_drops_only_that_backend(self, hera_xscale):
        cache = SolveCache()
        sc = Scenario(config=hera_xscale, rho=2.4)
        sc.solve(backend="firstorder", cache=cache)
        sc.solve(backend="exact", cache=cache)
        assert cache.invalidate_backend("firstorder") == 1
        assert len(cache) == 1
        assert not sc.solve(backend="firstorder", cache=cache).provenance.cache_hit
        assert sc.solve(backend="exact", cache=cache).provenance.cache_hit

    def test_replacing_a_backend_invalidates_default_cache(self, hera_xscale):
        from repro.api import backends as mod
        from repro.api.backends import SolverBackend, get_backend, register_backend
        from repro.api.result import Provenance, Result

        class Fake(SolverBackend):
            name = "replaceable-test-backend"
            modes = frozenset({"silent"})

            def _solve(self, scenario):
                inner = get_backend("firstorder").solve(scenario)
                return Result(
                    scenario=scenario,
                    provenance=Provenance(backend=self.name),
                    best=inner.best,
                )

        try:
            register_backend(Fake())
            sc = Scenario(config=hera_xscale, rho=2.4)
            sc.solve(backend="replaceable-test-backend")  # populates DEFAULT_CACHE
            register_backend(Fake(), replace=True)
            fresh = sc.solve(backend="replaceable-test-backend")
            assert not fresh.provenance.cache_hit  # stale entry was dropped
        finally:
            mod._REGISTRY.pop("replaceable-test-backend", None)
            DEFAULT_CACHE.clear()

    def test_default_cache_backs_plain_solves(self, hera_xscale):
        sc = Scenario(config=hera_xscale, rho=2.86421)
        try:
            first = sc.solve()
            second = sc.solve()
            assert not first.provenance.cache_hit
            assert second.provenance.cache_hit
        finally:
            DEFAULT_CACHE.clear()


class TestPerBackendStats:
    def test_breakdown_splits_by_backend(self, hera_xscale, cache):
        sc = Scenario(config=hera_xscale, rho=2.3456)
        sc.solve(backend="firstorder", cache=cache)
        sc.solve(backend="firstorder", cache=cache)  # hit
        sc.solve(backend="exact", cache=cache)
        assert cache.stats_by_backend() == {
            "firstorder": (1, 1),
            "exact": (0, 1),
        }

    def test_breakdown_totals_match_stats(self, hera_xscale, cache):
        for rho in (2.1, 2.2, 2.1, 2.3, 2.2):
            Scenario(config=hera_xscale, rho=rho).solve(cache=cache)
        hits, misses = cache.stats()
        by_backend = cache.stats_by_backend()
        assert sum(h for h, _ in by_backend.values()) == hits
        assert sum(m for _, m in by_backend.values()) == misses

    def test_breakdown_preserves_first_lookup_order(self, hera_xscale, cache):
        sc = Scenario(config=hera_xscale, rho=2.3456)
        sc.solve(backend="exact", cache=cache)
        sc.solve(backend="firstorder", cache=cache)
        sc.solve(backend="exact", cache=cache)
        assert list(cache.stats_by_backend()) == ["exact", "firstorder"]

    def test_clear_resets_breakdown(self, hera_xscale, cache):
        Scenario(config=hera_xscale, rho=2.3456).solve(cache=cache)
        cache.clear()
        assert cache.stats_by_backend() == {}
        assert cache.stats() == (0, 0)

    def test_empty_cache_has_empty_breakdown(self, cache):
        assert cache.stats_by_backend() == {}

    def test_breakdown_is_a_snapshot(self, hera_xscale, cache):
        Scenario(config=hera_xscale, rho=2.3456).solve(cache=cache)
        snap = cache.stats_by_backend()
        Scenario(config=hera_xscale, rho=9.9).solve(cache=cache)
        assert snap != cache.stats_by_backend()  # snapshot, not a live view
