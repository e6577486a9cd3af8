"""Backend registry semantics and per-backend routing rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Scenario
from repro.api.backends import (
    SolverBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.api.result import Provenance, Result
from repro.exceptions import (
    InfeasibleBoundError,
    UnknownBackendError,
    UnsupportedScenarioError,
)


class TestRegistry:
    def test_default_backends_registered(self):
        assert set(available_backends()) >= {"firstorder", "exact", "combined", "grid"}

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownBackendError) as exc:
            get_backend("simulated-annealing")
        assert "firstorder" in str(exc.value)

    @pytest.mark.parametrize(
        "name, canonical",
        [
            ("exact", "exact"),
            ("grid", "firstorder"),
            ("combined", "schedule-grid"),
            ("schedule-grid-jit", "schedule-grid"),
            ("schedule-grid-incremental", "schedule-grid"),
        ],
    )
    def test_scenario_resolves_the_canonical_name(self, name, canonical):
        """Plans group and caches key by the instance's own name, so
        every spelling of one backend resolves to it, whether it comes
        from the scenario or from an override."""
        sc = Scenario(config="hera-xscale", rho=3.0, backend=name)
        assert sc.resolve_backend_name() == canonical
        assert Scenario(config="hera-xscale", rho=3.0).resolve_backend_name(
            name
        ) == canonical
        assert get_backend(name) is get_backend(canonical)

    def test_resolving_an_unknown_name_raises(self):
        sc = Scenario(config="hera-xscale", rho=3.0)
        with pytest.raises(UnknownBackendError):
            sc.resolve_backend_name("simulated-annealing")

    def test_incremental_tier_modules_are_gone(self):
        """The retired tier survives only as a registry alias."""
        import importlib.util

        assert importlib.util.find_spec("repro.schedules.incremental") is None
        assert importlib.util.find_spec("repro.api.sweep_planner") is None
        assert get_backend("schedule-grid-incremental") is get_backend("schedule-grid")

    def test_replacing_a_backend_reroutes_its_aliases(self):
        """Re-registering ``schedule-grid`` drops the default cache's
        entries made under any of its spellings, and the aliases then
        solve on the replacement."""
        from repro.api.backends import ScheduleGridBackend

        calls: list[int] = []

        class Counting(ScheduleGridBackend):
            def solve_batch(self, scenarios):
                calls.append(len(scenarios))
                return super().solve_batch(scenarios)

        original = get_backend("schedule-grid")
        sc = Scenario(config="hera-xscale", rho=3.07, schedule="geom:0.4,1.5,1")
        sc.solve(backend="combined")
        assert sc.solve(backend="schedule-grid-jit").provenance.cache_hit
        try:
            register_backend(Counting(), replace=True)
            fresh = sc.solve(backend="combined")
            assert not fresh.provenance.cache_hit
            assert fresh.provenance.backend == "schedule-grid"
            assert calls == [1]
        finally:
            register_backend(original, replace=True)
        assert get_backend("schedule-grid") is original

    def test_register_and_replace(self):
        class Toy(SolverBackend):
            name = "toy-test-backend"
            modes = frozenset({"silent"})

            def _solve(self, scenario):
                return Result(
                    scenario=scenario,
                    provenance=Provenance(backend=self.name),
                    best=None,
                )

        try:
            backend = register_backend(Toy())
            assert get_backend("toy-test-backend") is backend
            with pytest.raises(ValueError):
                register_backend(Toy())
            replacement = register_backend(Toy(), replace=True)
            assert get_backend("toy-test-backend") is replacement
        finally:
            from repro.api import backends as mod

            mod._REGISTRY.pop("toy-test-backend", None)

    def test_custom_backend_solvable_through_scenario(self):
        class Constant(SolverBackend):
            name = "constant-test-backend"
            modes = frozenset({"silent"})

            def _solve(self, scenario):
                best = get_backend("firstorder").solve(scenario).best
                return Result(
                    scenario=scenario,
                    provenance=Provenance(backend=self.name),
                    best=best,
                )

        try:
            register_backend(Constant())
            result = Scenario(config="hera-xscale", rho=3.0).solve(
                backend="constant-test-backend", cache=False
            )
            assert result.provenance.backend == "constant-test-backend"
            assert result.best.speed_pair == (0.4, 0.4)
        finally:
            from repro.api import backends as mod

            mod._REGISTRY.pop("constant-test-backend", None)


class TestExceptionTransport:
    """Routing errors must survive pickling (the process-pool boundary)."""

    def test_unsupported_scenario_error_pickles(self):
        import pickle

        err = UnsupportedScenarioError("grid", "some reason")
        back = pickle.loads(pickle.dumps(err))
        assert back.backend == "grid" and back.reason == "some reason"
        assert str(back) == str(err)

    def test_unknown_backend_error_pickles_and_renders_plainly(self):
        import pickle

        err = UnknownBackendError("typo", ("firstorder", "grid"))
        back = pickle.loads(pickle.dumps(err))
        assert back.name == "typo" and back.available == ("firstorder", "grid")
        # No KeyError-style quote-wrapping in the rendered message.
        assert str(err).startswith("unknown solver backend")


class TestRouting:
    def test_mode_mismatch_raises(self):
        sc = Scenario(
            config="hera-xscale", rho=3.0, mode="combined", failstop_fraction=0.5
        )
        with pytest.raises(UnsupportedScenarioError):
            get_backend("grid").solve(sc)
        with pytest.raises(UnsupportedScenarioError):
            get_backend("firstorder").solve(sc)

    def test_grid_alias_solves_speed_restrictions(self):
        sc = Scenario(config="hera-xscale", rho=3.0, speeds=(0.4, 0.8))
        assert get_backend("grid") is get_backend("firstorder")
        assert get_backend("grid").supports(sc)
        result = sc.solve(backend="grid", cache=False)
        assert result.best == sc.solve(backend="firstorder", cache=False).best
        assert result.best.sigma1 in (0.4, 0.8)

    def test_combined_alias_solves_on_schedule_grid(self):
        sc = Scenario(config="hera-xscale", rho=3.0, mode="failstop")
        assert get_backend("combined") is get_backend("schedule-grid")
        result = sc.solve(backend="combined", cache=False)
        assert result.provenance.backend == "schedule-grid"
        assert result.best == sc.solve(cache=False).best

    def test_scenario_backend_field_is_honoured(self):
        result = Scenario(config="hera-xscale", rho=3.0, backend="grid").solve(
            cache=False
        )
        # "grid" is an alias: the instance that solved it is firstorder.
        assert result.provenance.backend == "firstorder"

    def test_solve_argument_overrides_scenario_field(self):
        result = Scenario(config="hera-xscale", rho=3.0, backend="exact").solve(
            backend="firstorder", cache=False
        )
        assert result.provenance.backend == "firstorder"


class TestGridBackend:
    """The retired ``grid`` name: an alias of the firstorder instance,
    whose batch path is the vectorised kernel."""

    def test_single_solve_matches_firstorder(self, any_config):
        fo = Scenario(config=any_config, rho=3.0).solve(cache=False)
        gr = Scenario(config=any_config, rho=3.0).solve(backend="grid", cache=False)
        assert gr.best == fo.best
        assert gr.provenance.backend == "firstorder"
        assert gr.candidates == fo.candidates  # standalone: full payload

    def test_grid_point_payload_through_evaluate_pair_grid(self, any_config):
        """The kernel's optimum over the pair product and over its
        diagonal (the old ``GridPoint`` payload) agree with the scalar
        solves."""
        from repro.sweep.vectorized import config_columns, evaluate_pair_grid

        k = len(any_config.speeds)
        s1 = np.repeat(any_config.speeds, k)
        s2 = np.tile(any_config.speeds, k)
        grid = evaluate_pair_grid(s1, s2, **config_columns([any_config]), rho=3.0)
        diag = np.arange(k) * (k + 1)
        best = int(np.argmin(grid.energy[0]))
        single = diag[int(np.argmin(grid.energy[0, diag]))]
        two = Scenario(config=any_config, rho=3.0).solve(cache=False).best
        one = Scenario(config=any_config, rho=3.0, mode="single-speed").solve(
            cache=False
        ).best
        assert np.isfinite(grid.energy[0, best])
        assert (s1[best], s2[best]) == two.speed_pair
        assert (grid.work[0, best], grid.energy[0, best]) == (
            two.work,
            two.energy_overhead,
        )
        assert grid.time[0, best] == two.time_overhead
        assert s1[single] == one.sigma1
        assert (grid.work[0, single], grid.energy[0, single]) == (
            one.work,
            one.energy_overhead,
        )

    def test_single_speed_mode_reads_diagonal(self, any_config):
        fo = Scenario(config=any_config, rho=3.0, mode="single-speed").solve(
            cache=False
        )
        gr = get_backend("grid").solve_batch(
            [Scenario(config=any_config, rho=3.0, mode="single-speed")]
        )[0]
        assert gr.best == fo.best
        assert gr.best.sigma1 == gr.best.sigma2

    def test_batch_mixes_speed_sets(self):
        scenarios = [
            Scenario(config="hera-xscale", rho=3.0),
            Scenario(config="hera-crusoe", rho=3.0),
            Scenario(config="atlas-xscale", rho=3.0),
        ]
        results = get_backend("grid").solve_batch(scenarios)
        assert [r.provenance.batch_size for r in results] == [3, 3, 3]
        for sc, res in zip(scenarios, results):
            expected = Scenario(config=sc.config, rho=sc.rho).solve(cache=False)
            assert res.best == expected.best
            assert res.candidates == () and res.raw is None

    def test_batch_marks_infeasible_without_raising(self):
        scenarios = [
            Scenario(config="hera-xscale", rho=1.0001),  # below rho_min
            Scenario(config="hera-xscale", rho=3.0),
        ]
        results = get_backend("grid").solve_batch(scenarios)
        assert not results[0].feasible
        assert results[1].feasible
        with pytest.raises(InfeasibleBoundError) as exc:
            scenarios[0].solve(cache=False)
        assert results[0].rho_min == exc.value.rho_min
