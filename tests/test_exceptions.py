"""Direct unit tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    ApproximationDomainError,
    ConvergenceError,
    InfeasibleBoundError,
    InvalidParameterError,
    ReproError,
    SpeedNotAvailableError,
    UnsupportedErrorModelError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            InvalidParameterError("x"),
            InfeasibleBoundError(1.0),
            SpeedNotAvailableError(0.5, (0.4, 1.0)),
            ApproximationDomainError("x"),
            ConvergenceError("x"),
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert isinstance(exc, ReproError)

    def test_invalid_parameter_is_value_error(self):
        # Callers using stdlib idioms still catch it.
        assert isinstance(InvalidParameterError("x"), ValueError)

    def test_speed_not_available_is_value_error(self):
        assert isinstance(SpeedNotAvailableError(0.5, (1.0,)), ValueError)


class TestInfeasibleBoundError:
    def test_message_without_minimum(self):
        e = InfeasibleBoundError(1.5)
        assert "rho=1.5" in str(e)
        assert e.rho == 1.5
        assert e.rho_min is None

    def test_message_with_minimum(self):
        e = InfeasibleBoundError(1.5, rho_min=2.7)
        assert "rho_min=2.7" in str(e)
        assert e.rho_min == 2.7

    def test_catchable_from_solver(self, hera_xscale=None):
        from repro.core.solver import solve_bicrit
        from repro.platforms import get_configuration

        with pytest.raises(ReproError):
            solve_bicrit(get_configuration("hera-xscale"), 1.0)


class TestSpeedNotAvailableError:
    def test_lists_available(self):
        e = SpeedNotAvailableError(0.5, (0.4, 1.0))
        assert "0.5" in str(e)
        assert "0.4" in str(e)
        assert e.speed == 0.5
        assert e.available == (0.4, 1.0)


class TestUnsupportedErrorModelError:
    def _model(self):
        from repro.errors import parse_error_model

        return parse_error_model("weibull:shape=0.7,mtbf=5e3")

    def test_hierarchy_and_attributes(self):
        e = UnsupportedErrorModelError("repro.failstop.exact", self._model())
        assert isinstance(e, ReproError)
        # Interface misuse, not a numeric domain problem.
        assert isinstance(e, TypeError)
        assert e.where == "repro.failstop.exact"
        assert e.model == self._model()

    def test_message_names_entry_point_and_model(self):
        e = UnsupportedErrorModelError("repro.failstop.exact", self._model())
        msg = str(e)
        assert "repro.failstop.exact" in msg
        assert "weibull" in msg
        assert "schedule" in msg  # points at the escape hatch

    def test_pickle_round_trip(self):
        # Must survive the Experiment.solve(processes=...) boundary.
        import pickle

        e = UnsupportedErrorModelError("somewhere", self._model())
        e2 = pickle.loads(pickle.dumps(e))
        assert e2.where == e.where
        assert e2.model == e.model
        assert str(e2) == str(e)

    def test_raised_by_failstop_closed_forms(self):
        from repro.errors import parse_error_model
        from repro.failstop import exact
        from repro.platforms import get_configuration

        cfg = get_configuration("hera-xscale")
        model = parse_error_model("gamma:shape=2,mtbf=5e3,failstop=0.5")
        with pytest.raises(UnsupportedErrorModelError):
            exact.expected_time(cfg, model, 1000.0, 0.4, 0.8)
        with pytest.raises(UnsupportedErrorModelError):
            exact.expected_energy(cfg, model, 1000.0, 0.4, 0.8)

    def test_raised_by_failstop_solver_and_firstorder(self):
        from repro.errors import parse_error_model
        from repro.failstop.firstorder import energy_coefficients, time_coefficients
        from repro.failstop.solver import solve_pair_combined, time_optimal_work
        from repro.failstop.validity import first_order_window
        from repro.platforms import get_configuration

        cfg = get_configuration("hera-xscale")
        model = parse_error_model("weibull:shape=0.7,mtbf=5e3,failstop=0.5")
        with pytest.raises(UnsupportedErrorModelError):
            solve_pair_combined(cfg, model, 0.4, 0.8, 3.0)
        with pytest.raises(UnsupportedErrorModelError):
            time_optimal_work(cfg, model, 0.4)
        with pytest.raises(UnsupportedErrorModelError):
            time_coefficients(cfg, model, 0.4, 0.8)
        with pytest.raises(UnsupportedErrorModelError):
            energy_coefficients(cfg, model, 0.4, 0.8)
        with pytest.raises(UnsupportedErrorModelError):
            first_order_window(model)

    def test_memoryless_models_pass_the_guards(self):
        # The audit converts, never blocks, exponential models: the
        # closed forms are exactly right for them.
        from repro.errors import CombinedErrors, parse_error_model
        from repro.failstop import exact
        from repro.platforms import get_configuration

        cfg = get_configuration("hera-xscale")
        model = parse_error_model("exp:rate=1e-4,failstop=0.5")
        legacy = CombinedErrors(1e-4, 0.5)
        assert exact.expected_time(cfg, model, 1000.0, 0.4, 0.8) == exact.expected_time(
            cfg, legacy, 1000.0, 0.4, 0.8
        )
