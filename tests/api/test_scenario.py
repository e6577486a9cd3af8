"""Scenario construction, validation, and legacy-solver equivalence."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.api import Experiment, Scenario
from repro.api.cache import SolveCache
from repro.core.numeric import solve_pair_exact
from repro.core.singlespeed import _solve_single_speed_direct
from repro.core.solver import _solve_bicrit_direct, solve_bicrit
from repro.core.numeric import solve_bicrit_exact
from repro.core.solution import BiCritSolution
from repro.errors import CombinedErrors
from repro.exceptions import InfeasibleBoundError, InvalidParameterError
from repro.failstop.solver import solve_bicrit_combined, solve_pair_combined
from repro.platforms import configuration_names, get_configuration

from ..schedules.test_vectorized import assert_matches_oracle

RHO = 3.0


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            Scenario(config="hera-xscale", rho=RHO, mode="quantum")

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(InvalidParameterError):
            Scenario(config="hera-xscale", rho=0.0)

    def test_combined_requires_fraction(self):
        with pytest.raises(InvalidParameterError):
            Scenario(config="hera-xscale", rho=RHO, mode="combined")

    def test_fraction_range_checked(self):
        with pytest.raises(InvalidParameterError):
            Scenario(
                config="hera-xscale", rho=RHO, mode="combined", failstop_fraction=1.5
            )

    def test_fraction_meaningless_in_silent_mode(self):
        with pytest.raises(InvalidParameterError):
            Scenario(config="hera-xscale", rho=RHO, failstop_fraction=0.5)

    def test_unknown_config_name_raises_on_resolution(self):
        sc = Scenario(config="nonexistent-cpu", rho=RHO)
        with pytest.raises(KeyError):
            sc.resolved_config()

    def test_speeds_normalised_to_tuples(self):
        sc = Scenario(config="hera-xscale", rho=RHO, speeds=[0.4, 0.8])
        assert sc.speeds == (0.4, 0.8)
        assert hash(sc)  # stays hashable for the cache

    def test_failstop_mode_implies_full_fraction(self):
        sc = Scenario(config="hera-xscale", rho=RHO, mode="failstop")
        assert sc.effective_failstop_fraction == 1.0
        assert sc.resolved_errors().failstop_fraction == 1.0

    def test_failstop_mode_rejects_partial_fraction(self):
        with pytest.raises(InvalidParameterError):
            Scenario(
                config="hera-xscale", rho=RHO, mode="failstop", failstop_fraction=0.25
            )
        # Explicit f=1 stays legal (it matches what the mode solves).
        sc = Scenario(
            config="hera-xscale", rho=RHO, mode="failstop", failstop_fraction=1.0
        )
        assert sc.effective_failstop_fraction == 1.0

    def test_error_rate_override_applied(self, hera_xscale):
        sc = Scenario(config=hera_xscale, rho=RHO, error_rate=1e-4)
        assert sc.resolved_config().lam == 1e-4

    def test_with_mode_transitions(self):
        combined = Scenario(
            config="hera-xscale", rho=RHO, mode="combined", failstop_fraction=0.5
        )
        # combined -> failstop drops the partial fraction (failstop implies 1).
        fs = combined.with_mode("failstop")
        assert fs.failstop_fraction is None
        assert fs.effective_failstop_fraction == 1.0
        # failstop -> combined keeps the effective fraction.
        assert fs.with_mode("combined").failstop_fraction == 1.0
        # combined -> silent drops it entirely; round trip back needs it again.
        silent = combined.with_mode("silent")
        assert silent.failstop_fraction is None
        with pytest.raises(InvalidParameterError):
            silent.with_mode("combined")


class TestFirstOrderEquivalence:
    """``Scenario.solve`` must be byte-identical to the direct enumeration."""

    def test_matches_direct_solver(self, any_config):
        direct = _solve_bicrit_direct(any_config, RHO)
        result = Scenario(config=any_config, rho=RHO).solve(cache=False)
        assert result.best == direct.best
        assert result.best.speed_pair == direct.best.speed_pair
        assert result.best.work == direct.best.work
        assert result.candidates == direct.candidates
        assert isinstance(result.raw, BiCritSolution)

    def test_matches_legacy_wrapper(self, any_config):
        legacy = solve_bicrit(any_config, RHO)
        result = Scenario(config=any_config, rho=RHO).solve(cache=False)
        assert result.best.speed_pair == legacy.best.speed_pair
        assert result.best.work == legacy.best.work

    def test_single_speed_matches_direct(self, any_config):
        direct = _solve_single_speed_direct(any_config, RHO)
        result = Scenario(config=any_config, rho=RHO, mode="single-speed").solve(
            cache=False
        )
        assert result.best == direct.best
        assert result.best.sigma1 == result.best.sigma2

    def test_speed_restrictions_forwarded(self, hera_xscale):
        direct = _solve_bicrit_direct(
            hera_xscale, RHO, speeds=(0.4, 0.8), sigma2_choices=(0.4,)
        )
        result = Scenario(
            config=hera_xscale, rho=RHO, speeds=(0.4, 0.8), sigma2_choices=(0.4,)
        ).solve(cache=False)
        assert result.best == direct.best

    def test_infeasible_raises_like_legacy(self, hera_xscale):
        with pytest.raises(InfeasibleBoundError) as exc:
            Scenario(config=hera_xscale, rho=1.0001).solve(cache=False)
        assert exc.value.rho_min is not None


class TestExactEquivalence:
    def test_matches_pairwise_enumeration(self, any_config):
        best = None
        for s1 in any_config.speeds:
            for s2 in any_config.speeds:
                sol = solve_pair_exact(any_config, s1, s2, RHO)
                if sol is not None and (
                    best is None or sol.energy_overhead < best.energy_overhead
                ):
                    best = sol
        result = Scenario(config=any_config, rho=RHO).solve(
            backend="exact", cache=False
        )
        assert result.best == best

    def test_matches_legacy_wrapper(self, any_config):
        legacy = solve_bicrit_exact(any_config, RHO)
        result = Scenario(config=any_config, rho=RHO).solve(backend="exact")
        assert result.speed_pair == (legacy.sigma1, legacy.sigma2)
        assert result.work == legacy.work


class TestCombinedEquivalence:
    FRACTION = 0.5

    def test_matches_pairwise_enumeration(self, any_config):
        errors = CombinedErrors(any_config.lam, self.FRACTION)
        best = None
        for s1 in any_config.speeds:
            for s2 in any_config.speeds:
                sol = solve_pair_combined(any_config, errors, s1, s2, RHO)
                if sol is not None and (
                    best is None or sol.energy_overhead < best.energy_overhead
                ):
                    best = sol
        result = Scenario(
            config=any_config,
            rho=RHO,
            mode="combined",
            failstop_fraction=self.FRACTION,
        ).solve(cache=False)
        assert_matches_oracle(result.best, best)

    def test_matches_legacy_wrapper(self, any_config):
        errors = CombinedErrors(any_config.lam, self.FRACTION)
        legacy = solve_bicrit_combined(any_config, errors, RHO)
        result = Scenario(
            config=any_config,
            rho=RHO,
            mode="combined",
            failstop_fraction=self.FRACTION,
        ).solve()
        assert result.speed_pair == (legacy.sigma1, legacy.sigma2)
        assert result.work == legacy.work

    def test_default_backend_is_schedule_grid(self):
        sc = Scenario(
            config="hera-xscale", rho=RHO, mode="combined", failstop_fraction=0.5
        )
        assert sc.default_backend == "schedule-grid"
        assert sc.resolve_backend_name() == "schedule-grid"


class TestResolvedConfigMemo:
    """``resolved_config`` runs once per scenario and the memo is
    invisible to equality, hashing, repr and pickles."""

    def test_paper_grid_solve_resolves_each_scenario_once(self, monkeypatch):
        import repro.api.scenario

        repro.api.scenario._catalog_config.cache_clear()
        experiment = Experiment.over(
            configs=tuple(configuration_names()),
            rhos=tuple(1.3 + i * (3.5 - 1.3) / 39 for i in range(40)),
            error_rates=(None, 1e-5, 1e-4),
        )
        calls = []
        real = repro.api.scenario.get_configuration

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(repro.api.scenario, "get_configuration", counting)
        results = experiment.solve(cache=SolveCache())
        assert len(results) == 960
        # One catalog resolution per (config, error rate): 8 x 3.
        assert 0 < len(calls) <= 24

    def test_memo_stays_out_of_identity(self):
        sc = Scenario(config="hera-xscale", rho=3.0, error_rate=1e-5)
        before = (pickle.dumps(sc), hash(sc), repr(sc))
        cfg = sc.resolved_config()
        assert sc.resolved_config() is cfg
        assert (pickle.dumps(sc), hash(sc), repr(sc)) == before
        assert sc == Scenario(config="hera-xscale", rho=3.0, error_rate=1e-5)
        assert pickle.loads(pickle.dumps(sc)).resolved_config() == cfg

    def test_same_name_and_rate_share_one_configuration(self):
        a = Scenario(config="hera-xscale", rho=3.0, error_rate=1e-5)
        b = Scenario(config="hera-xscale", rho=2.0, error_rate=1e-5, mode="single-speed")
        assert a.resolved_config() is b.resolved_config()
        assert a.resolved_config().lam == 1e-5
        plain = Scenario(config="hera-xscale", rho=3.0)
        assert plain.resolved_config() is Scenario(config="hera-xscale", rho=1.5).resolved_config()
        assert plain.resolved_config() is not a.resolved_config()
        # Directly passed configurations are not pooled.
        cfg = get_configuration("hera-xscale")
        assert Scenario(config=cfg, rho=3.0).resolved_config() is cfg
        assert (
            Scenario(config=cfg, rho=3.0, error_rate=1e-5).resolved_config()
            == a.resolved_config()
        )

    def test_replace_resolves_again(self):
        sc = Scenario(config="hera-xscale", rho=3.0, error_rate=1e-5)
        assert sc.resolved_config().lam == 1e-5
        other = dataclasses.replace(sc, error_rate=1e-4)
        assert other.resolved_config().lam == 1e-4
        assert sc.resolved_config().lam == 1e-5
