"""The typed spec codec: strict validation with field paths.

Contract (ISSUE satellite): a malformed JSON spec raises
:class:`InvalidSpecError` carrying *every* problem with its JSON field
path, and the HTTP layer maps that to a 422 — never a 500.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, SolveCache
from repro.exceptions import InvalidSpecError
from repro.platforms import configuration_names
from repro.service import InMemoryArtifactStore, ServiceApp, ServiceConfig
from repro.service.specs import ExperimentSpec, parse_experiment_spec
from repro.service.testing import InProcessClient


def _paths(excinfo) -> list[str]:
    return [path for path, _ in excinfo.value.issues]


class TestGridSpecs:
    def test_minimal_grid_parses(self):
        spec = parse_experiment_spec(
            {"grid": {"configs": ["hera-xscale"], "rhos": [2.8, 3.0]}}
        )
        assert isinstance(spec, ExperimentSpec)
        assert len(spec) == 2
        assert spec.name == "experiment"
        assert spec.artifacts == ("csv", "json")
        exp = spec.experiment()
        assert len(exp) == 2

    def test_linear_range_axis(self):
        spec = parse_experiment_spec(
            {
                "grid": {
                    "configs": ["hera-xscale"],
                    "rhos": {"start": 2.5, "stop": 5.0, "count": 11},
                }
            }
        )
        rhos = [sc.rho for sc in spec.scenarios]
        assert len(rhos) == 11
        assert rhos[0] == pytest.approx(2.5)
        assert rhos[-1] == pytest.approx(5.0)

    def test_log_range_axis(self):
        spec = parse_experiment_spec(
            {
                "grid": {
                    "configs": ["hera-xscale"],
                    "rhos": [3.0],
                    "error_rates": {
                        "start": 1e-7, "stop": 1e-5, "count": 3, "scale": "log",
                    },
                }
            }
        )
        rates = sorted(sc.error_rate for sc in spec.scenarios)
        assert rates[1] == pytest.approx(1e-6)

    def test_cross_product_of_axes(self):
        spec = parse_experiment_spec(
            {
                "grid": {
                    "configs": ["hera-xscale", "atlas-crusoe"],
                    "rhos": [2.8, 3.0, 3.5],
                    "schedules": [None, "geom:0.4,1.5,1"],
                }
            }
        )
        assert len(spec) == 2 * 3 * 2

    def test_schedule_and_error_model_specs_resolve(self):
        spec = parse_experiment_spec(
            {
                "grid": {
                    "configs": ["hera-xscale"],
                    "rhos": [3.0],
                    "schedules": ["geom:0.4,1.5,1"],
                    "error_models": ["weibull:shape=0.7,mtbf=3e5"],
                }
            }
        )
        (scenario,) = spec.scenarios
        assert scenario.schedule is not None
        assert scenario.errors is not None

    def test_every_problem_reported_with_its_path(self):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(
                {
                    "grid": {
                        "configs": ["no-such-config"],
                        "rhos": "not-an-array",
                        "schedules": [None, "bogus:1"],
                        "error_models": ["nope"],
                    },
                    "analyses": ["frontier", "wat"],
                }
            )
        paths = _paths(excinfo)
        assert "grid.configs[0]" in paths
        assert "grid.rhos" in paths
        assert "grid.schedules[1]" in paths
        assert "grid.error_models[0]" in paths
        assert "analyses[1]" in paths
        # One pass reports everything at once.
        assert len(paths) >= 5

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(
                {
                    "grid": {"configs": ["hera-xscale"], "rhos": [3.0], "frob": 1},
                    "nope": True,
                }
            )
        assert "grid.frob" in _paths(excinfo)
        assert "nope" in _paths(excinfo)

    def test_range_object_validation(self):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(
                {
                    "grid": {
                        "configs": ["hera-xscale"],
                        "rhos": {"start": "x", "stop": 5.0, "count": 1},
                    }
                }
            )
        paths = _paths(excinfo)
        assert "grid.rhos.start" in paths
        assert "grid.rhos.count" in paths

    def test_max_points_cap(self):
        payload = {
            "grid": {
                "configs": ["hera-xscale"],
                "rhos": {"start": 2.5, "stop": 5.0, "count": 100},
            }
        }
        parse_experiment_spec(payload, max_points=100)
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(payload, max_points=99)
        # A range longer than the cap is refused before it is built.
        assert "grid.rhos.count" in _paths(excinfo)
        # A product of in-cap axes over the cap is refused on the grid.
        payload["grid"]["configs"] = ["hera-xscale", "atlas-crusoe"]
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(payload, max_points=199)
        assert "grid" in _paths(excinfo)

    @pytest.mark.parametrize("axis", ["rhos", "error_rates"])
    def test_range_count_above_cap_rejected(self, axis):
        payload = {
            "grid": {
                "configs": ["hera-xscale"],
                axis: {"start": 1e-6, "stop": 5.0, "count": 11},
            }
        }
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(payload, max_points=10)
        assert _paths(excinfo) == [f"grid.{axis}.count"]

    def test_cross_field_scenario_constraint_lands_on_grid(self):
        # A speed schedule cannot combine with an explicit fail-stop
        # mode grid — Scenario construction refuses; the codec tags
        # the refusal with the grid path instead of crashing.
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(
                {
                    "grid": {
                        "configs": ["hera-xscale"],
                        "rhos": [3.0],
                        "modes": ["unknown-mode"],
                    }
                }
            )
        assert any(p.startswith("grid.modes") for p in _paths(excinfo))


class TestScenarioListSpecs:
    def test_explicit_scenarios(self):
        spec = parse_experiment_spec(
            {
                "scenarios": [
                    {"config": "hera-xscale", "rho": 3.0},
                    {"config": "hera-xscale", "rho": 3.5, "label": "hi"},
                ]
            }
        )
        assert len(spec) == 2
        assert spec.scenarios[1].label == "hi"

    def test_scenario_issues_carry_indexed_paths(self):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(
                {
                    "scenarios": [
                        {"config": "hera-xscale", "rho": 3.0},
                        {"config": "hera-xscale"},
                        {"config": "bad", "rho": "x", "backend": "no-backend"},
                    ]
                }
            )
        paths = _paths(excinfo)
        assert "scenarios[1].rho" in paths
        assert "scenarios[2].config" in paths
        assert "scenarios[2].rho" in paths
        assert "scenarios[2].backend" in paths

    def test_top_level_backend_applies_to_scenarios(self):
        spec = parse_experiment_spec(
            {
                "backend": "firstorder",
                "scenarios": [{"config": "hera-xscale", "rho": 3.0}],
            }
        )
        assert spec.scenarios[0].backend == "firstorder"

    @pytest.mark.parametrize(
        "alias", ["combined", "schedule-grid-jit", "schedule-grid-incremental"]
    )
    def test_retired_backend_name_accepted(self, alias):
        """Specs naming a retired tier still parse (no 422) and solve on
        ``schedule-grid``, which the old name now aliases."""
        spec = parse_experiment_spec(
            {
                "backend": alias,
                "scenarios": [
                    {"config": "hera-xscale", "rho": 3.0, "schedule": "geom:0.4,1.5,1"}
                ],
            }
        )
        assert spec.scenarios[0].backend == alias
        (result,) = spec.experiment().solve(cache=False)
        assert result.feasible
        assert result.provenance.backend == "schedule-grid"


class TestTopLevelShape:
    @pytest.mark.parametrize("payload", [None, 17, "spec", ["grid"]])
    def test_non_object_payload(self, payload):
        with pytest.raises(InvalidSpecError):
            parse_experiment_spec(payload)

    def test_grid_and_scenarios_are_exclusive(self):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(
                {
                    "grid": {"configs": ["hera-xscale"], "rhos": [3.0]},
                    "scenarios": [{"config": "hera-xscale", "rho": 3.0}],
                }
            )
        assert "" in _paths(excinfo)

    def test_neither_grid_nor_scenarios(self):
        with pytest.raises(InvalidSpecError):
            parse_experiment_spec({"name": "empty"})

    def test_unknown_backend_and_artifact_format(self):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec(
                {
                    "backend": "definitely-not-registered",
                    "artifacts": ["csv", "parquet"],
                    "grid": {"configs": ["hera-xscale"], "rhos": [3.0]},
                }
            )
        paths = _paths(excinfo)
        assert "backend" in paths
        assert "artifacts[1]" in paths

    def test_error_message_lists_paths(self):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_experiment_spec({"grid": {"configs": ["x"], "rhos": [3.0]}})
        assert "grid.configs[0]" in str(excinfo.value)


class TestHttpMapping:
    def test_invalid_spec_is_422_not_500(self, client):
        response = client.post_json(
            "/v1/jobs", {"grid": {"configs": ["nope"], "rhos": "x"}}
        )
        assert response.status == 422
        doc = response.json()
        assert doc["error"] == "invalid-spec"
        paths = [issue["path"] for issue in doc["issues"]]
        assert "grid.configs[0]" in paths
        assert "grid.rhos" in paths

    def test_syntactically_bad_json_is_400(self, client):
        response = client.request(
            "POST", "/v1/jobs",
            headers={"Content-Type": "application/json"},
            body=b"{not json",
        )
        assert response.status == 400
        assert response.json()["error"] == "bad-request"

    def test_empty_body_is_400(self, client):
        assert client.request("POST", "/v1/jobs").status == 400

    @pytest.mark.parametrize(
        "configs, rhos",
        [
            # One row over the cap, then a grid far over it.
            (["hera-xscale"], [2.5 + 0.1 * i for i in range(11)]),
            (list(configuration_names()), [2.5, 3.0, 3.5, 4.0, 4.5]),
        ],
        ids=["one-over", "far-over"],
    )
    def test_over_cap_grid_stops_building(self, monkeypatch, configs, rhos):
        app = ServiceApp(
            ServiceConfig(transport="inline", job_workers=1, max_points=10),
            cache=SolveCache(),
            artifacts=InMemoryArtifactStore(),
        )
        built = 0
        post_init = Scenario.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        with app:
            monkeypatch.setattr(Scenario, "__post_init__", counting)
            response = InProcessClient(app).post_json(
                "/v1/jobs", {"grid": {"configs": configs, "rhos": rhos}}
            )
        assert response.status == 422
        assert [issue["path"] for issue in response.json()["issues"]] == ["grid"]
        assert built <= 11
