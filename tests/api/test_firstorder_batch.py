"""The ``firstorder`` batch path against the scalar Theorem-1 enumeration.

``FirstOrderBackend.solve_batch`` evaluates every row x pair in one
:func:`~repro.sweep.vectorized.evaluate_pair_grid` pass and reads each
winner off the kernel's columns, with no scalar work per row.  These
tests pin it to the standalone solvers: the same ``best`` (``==`` on the
dataclass, so byte-identical fields), the same feasibility, and on
infeasible rows the same ``rho_min`` the scalar solvers raise.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, Scenario, get_backend
from repro.api.cache import clear_default_cache
from repro.core.feasibility import min_performance_bound
from repro.core.singlespeed import _solve_single_speed_direct, solve_single_speed
from repro.core.solver import _solve_bicrit_direct, solve_bicrit
from repro.exceptions import InfeasibleBoundError, InvalidParameterError
from repro.platforms import configuration_names, get_configuration

BACKEND = get_backend("firstorder")


def scalar(sc: Scenario):
    """(best, rho_min) of the scalar enumeration for ``sc``."""
    cfg = sc.resolved_config()
    try:
        if sc.mode == "single-speed":
            sol = _solve_single_speed_direct(cfg, sc.rho, speeds=sc.speeds)
        else:
            sol = _solve_bicrit_direct(
                cfg, sc.rho, speeds=sc.speeds, sigma2_choices=sc.sigma2_choices
            )
    except InfeasibleBoundError as exc:
        return None, exc.rho_min
    return sol.best, None


def assert_matches_scalar(scenarios):
    results = BACKEND.solve_batch(scenarios)
    assert len(results) == len(scenarios)
    for sc, res in zip(scenarios, results):
        best, rho_min = scalar(sc)
        assert res.scenario is sc
        assert res.feasible == (best is not None)
        assert res.best == best
        assert res.rho_min == rho_min
        assert res.provenance.backend == "firstorder"
        assert res.provenance.batch_size == len(scenarios)
    return results


@st.composite
def rows(draw):
    """One scenario: a catalog configuration with a scaled error rate,
    either mode, optional speed restrictions, and a bound that is
    either arbitrary or a few ulps around one pair's Eq. (6) threshold."""
    name = draw(st.sampled_from(configuration_names()))
    base = get_configuration(name)
    rate = base.lam * 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
    mode = draw(st.sampled_from(("silent", "single-speed")))
    subset = st.lists(
        st.sampled_from(base.speeds), min_size=1, max_size=len(base.speeds),
        unique=True,
    ).map(lambda s: tuple(sorted(s)))
    speeds = draw(st.none() | subset)
    sigma2 = draw(st.none() | subset) if mode == "silent" else None
    cfg = base.with_error_rate(rate)
    s1_set = speeds if speeds is not None else cfg.speeds
    s2_set = sigma2 if sigma2 is not None else cfg.speeds
    if draw(st.booleans()):
        s1 = draw(st.sampled_from(s1_set))
        s2 = s1 if mode == "single-speed" else draw(st.sampled_from(s2_set))
        rho = min_performance_bound(cfg, s1, s2)
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            rho = math.nextafter(rho, math.inf if ulps > 0 else 0.0)
    else:
        rho = draw(st.floats(min_value=1.0, max_value=8.0))
    return Scenario(
        config=name,
        rho=rho,
        mode=mode,
        error_rate=rate,
        speeds=speeds,
        sigma2_choices=sigma2,
    )


@given(batch=st.lists(rows(), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_batch_matches_scalar_enumeration(batch):
    assert_matches_scalar(batch)


@pytest.mark.parametrize("mode", ["silent", "single-speed"])
def test_threshold_neighbourhood_of_every_pair(mode):
    """Every catalog pair at its own Eq. (6) threshold and 2 ulps either
    side: the kernel's feasibility decision is the scalar one."""
    scenarios = []
    for name in configuration_names():
        cfg = get_configuration(name)
        pairs = (
            [(s, s) for s in cfg.speeds]
            if mode == "single-speed"
            else [(s1, s2) for s1 in cfg.speeds for s2 in cfg.speeds]
        )
        for s1, s2 in pairs:
            rho = min_performance_bound(cfg, s1, s2)
            for r in (
                math.nextafter(math.nextafter(rho, 0.0), 0.0),
                rho,
                math.nextafter(math.nextafter(rho, math.inf), math.inf),
            ):
                scenarios.append(Scenario(config=name, rho=r, mode=mode))
    assert_matches_scalar(scenarios)


def paper_grid_scenarios() -> list[Scenario]:
    """The 960 rows of one benchmark ``paper_grid`` batch (unshifted):
    8 configurations x 40 rho in [1.3, 3.5] x 3 error rates."""
    step = (3.5 - 1.3) / 39
    rhos = [1.3 + i * step for i in range(40)]
    return list(
        Experiment.over(
            configs=tuple(configuration_names()),
            rhos=tuple(rhos),
            error_rates=(None, 1e-5, 1e-4),
        )
    )


def test_paper_grid_rows_match_scalar():
    scenarios = paper_grid_scenarios()
    assert len(scenarios) == 960
    results = assert_matches_scalar(scenarios)
    infeasible = [r for r in results if not r.feasible]
    assert len(infeasible) == 66
    assert all(r.rho_min is not None for r in infeasible)


@pytest.mark.parametrize(
    "shift", [random.Random(seed).uniform(0.0, 1e-6) for seed in (1, 2, 3)] + [0.1]
)
def test_shifted_paper_grid_rows_match_scalar(shift):
    """The benchmark's fresh batches move every rho by one seeded
    offset below 1e-6; a shift of 0.1 moves rows across pair
    thresholds."""
    scenarios = [sc.with_rho(sc.rho + shift) for sc in paper_grid_scenarios()]
    assert_matches_scalar(scenarios)


def test_batch_makes_no_scalar_pair_evaluations(monkeypatch):
    """Winners come from the kernel's columns, not from evaluate_pair."""
    import repro.api.backends
    import repro.core.singlespeed
    import repro.core.solver

    calls = []
    real = repro.core.solver.evaluate_pair

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (repro.api.backends, repro.core.singlespeed, repro.core.solver):
        monkeypatch.setattr(module, "evaluate_pair", counting)
    results = BACKEND.solve_batch(paper_grid_scenarios())
    assert len(results) == 960 and sum(r.feasible for r in results) == 894
    assert calls == []


def test_mixed_pair_axes_in_one_batch():
    """Full product, diagonal and restricted axes share one call."""
    batch = [
        Scenario(config="hera-xscale", rho=3.0),
        Scenario(config="hera-xscale", rho=3.0, mode="single-speed"),
        Scenario(config="hera-xscale", rho=3.0, speeds=(0.6, 0.8)),
        Scenario(config="hera-xscale", rho=3.0, sigma2_choices=(1.0,)),
        Scenario(config="atlas-crusoe", rho=2.0, speeds=(0.45,), mode="single-speed"),
        Scenario(config="atlas-crusoe", rho=1.05),
    ]
    results = assert_matches_scalar(batch)
    assert results[3].best.sigma2 == 1.0
    assert not results[5].feasible


def test_invalid_restriction_raises_like_a_standalone_solve():
    bad = Scenario(config="hera-xscale", rho=3.0, speeds=(-0.5,))
    with pytest.raises(InvalidParameterError):
        bad.solve(cache=False)
    with pytest.raises(InvalidParameterError):
        BACKEND.solve_batch([Scenario(config="hera-xscale", rho=3.0), bad])


class TestLegacyCallersAfterBatchSolve:
    """Batch rows cached in DEFAULT_CACHE carry no candidates; the
    legacy entry points must not hand them out."""

    @pytest.fixture(autouse=True)
    def _fresh_default_cache(self):
        clear_default_cache()
        yield
        clear_default_cache()

    def test_solve_bicrit_returns_every_candidate(self, hera_xscale):
        Experiment.over(configs=(hera_xscale,), rhos=(3.0,)).solve()
        cached = Scenario(config=hera_xscale, rho=3.0).solve()
        assert cached.provenance.cache_hit and cached.candidates == ()
        sol = solve_bicrit(hera_xscale, 3.0)
        assert sol == _solve_bicrit_direct(hera_xscale, 3.0)
        assert len(sol.candidates) == len(hera_xscale.speeds) ** 2

    def test_solve_single_speed_returns_every_candidate(self, hera_xscale):
        Experiment.over(
            configs=(hera_xscale,), rhos=(3.0,), modes=("single-speed",)
        ).solve()
        sol = solve_single_speed(hera_xscale, 3.0)
        assert sol == _solve_single_speed_direct(hera_xscale, 3.0)
        assert len(sol.candidates) == len(hera_xscale.speeds)

    def test_table_command_after_batch_solve(self, capsys):
        from repro.cli import main

        assert main(["table", "--rho", "3"]) == 0
        expected = capsys.readouterr().out
        Experiment.over(configs=("hera-xscale",), rhos=(3.0,)).solve()
        assert main(["table", "--rho", "3"]) == 0
        assert capsys.readouterr().out == expected
