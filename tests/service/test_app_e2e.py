"""End-to-end over a real socket: submit → stream SSE → fetch artifacts.

The stdlib carrier serves a live app; the client side is plain
:mod:`http.client` — the whole path runs with zero third-party
packages (the acceptance shape of the service-smoke CI job).
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.api.cache import SolveCache
from repro.service import InMemoryArtifactStore, ServiceApp, ServiceConfig
from repro.service.testing import InProcessClient, run_service, sse_events

TOKEN = "e2e-secret"


@pytest.fixture(scope="module")
def served():
    app = ServiceApp(
        ServiceConfig(
            transport="inline", job_workers=2, tokens=(TOKEN,),
            keepalive_seconds=0.2,
        ),
        cache=SolveCache(),
        artifacts=InMemoryArtifactStore(),
    )
    with run_service(app) as server:
        yield server


@pytest.fixture
def client(served):
    return InProcessClient(served.app, token=TOKEN)


GRID_SPEC = {
    "name": "e2e-grid",
    "grid": {
        "configs": ["hera-xscale"],
        "rhos": {"start": 2.6, "stop": 5.0, "count": 25},
        "schedules": [None, "geom:0.4,1.5,1"],
    },
    "analyses": ["frontier", "crossover"],
}


def test_submit_stream_fetch(served, client):
    accepted = client.submit(GRID_SPEC)
    assert accepted["state"] in ("queued", "running", "succeeded")

    # Live SSE over the socket: ends when the job reaches a terminal
    # state, having carried per-shard progress along the way.
    events = list(sse_events(served, accepted["id"], token=TOKEN))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "state"
    assert kinds[-1] == "state"
    assert events[-1]["data"]["state"] == "succeeded"
    progress = [e["data"] for e in events if e["event"] == "progress"]
    assert progress
    assert progress[-1]["fraction"] == 1.0
    assert progress[-1]["total_scenarios"] == 50
    # ids are the dense per-job sequence.
    ids = [e["id"] for e in events]
    assert ids == sorted(ids)

    # Artifacts: listing plus typed downloads.
    listing = client.get(f"/v1/jobs/{accepted['id']}/artifacts").json()
    names = {row["name"] for row in listing["artifacts"]}
    assert names == {"results.csv", "results.json", "frontier.json", "crossover.json"}

    response = client.get(f"/v1/jobs/{accepted['id']}/artifacts/results.csv")
    assert response.status == 200
    assert (response.header("Content-Type") or "").startswith("text/csv")
    rows = list(csv.DictReader(io.StringIO(response.text)))
    assert len(rows) == 50
    assert {row["config"] for row in rows} == {"Hera/Intel XScale"}

    payload = client.get(
        f"/v1/jobs/{accepted['id']}/artifacts/results.json"
    ).json()
    assert payload["name"] == "e2e-grid"
    assert len(payload["results"]) == 50
    frontier = json.loads(
        client.get(f"/v1/jobs/{accepted['id']}/artifacts/frontier.json").body
    )
    assert frontier["points"] if "points" in frontier else frontier


def test_sse_last_event_id_replays_missed_suffix(served, client):
    accepted = client.submit(GRID_SPEC)
    all_events = list(sse_events(served, accepted["id"], token=TOKEN))
    cut = all_events[len(all_events) // 2]["id"]
    replayed = list(
        sse_events(served, accepted["id"], token=TOKEN, after=cut)
    )
    assert [e["id"] for e in replayed] == [
        e["id"] for e in all_events if e["id"] > cut
    ]


def test_duplicate_submission_hits_cache(served, client):
    spec = dict(GRID_SPEC, name="dup-check")
    first = client.submit(spec)
    done_first = client.wait_job(first["id"], poll=0.01)
    assert done_first["state"] == "succeeded"

    second = client.submit(spec)
    done_second = client.wait_job(second["id"], poll=0.01)
    assert done_second["state"] == "succeeded"
    result = done_second["result"]
    # The acceptance bar: >= 90% of the identical re-submission served
    # from the shared cache (here: all of it).
    assert result["cache_hits"] / result["scenarios"] >= 0.90

    # Field-equal deliverables on both runs.
    a = client.get(f"/v1/jobs/{first['id']}/artifacts/results.json").json()
    b = client.get(f"/v1/jobs/{second['id']}/artifacts/results.json").json()
    for ra, rb in zip(a["results"], b["results"]):
        assert ra["scenario"] == rb["scenario"]
        assert ra["feasible"] == rb["feasible"]
        assert ra["best"] == rb["best"]


@pytest.mark.parametrize(
    "alias", ["combined", "schedule-grid-jit", "schedule-grid-incremental"]
)
def test_retired_backend_name_solves_on_schedule_grid(client, alias):
    """A spec naming a deleted tier is accepted (202, not 422) and
    solves on ``schedule-grid``, which the old name now aliases."""
    spec = {
        "name": "retired-backend",
        "backend": alias,
        "grid": {
            "configs": ["hera-xscale"],
            "rhos": [2.9, 3.4],
            "schedules": ["geom:0.4,1.5,1"],
        },
    }
    done = client.wait_job(client.submit(spec)["id"], poll=0.01)
    assert done["state"] == "succeeded"
    rows = client.get(f"/v1/jobs/{done['id']}/artifacts/results.json").json()
    assert [r["provenance"]["backend"] for r in rows["results"]] == [
        "schedule-grid", "schedule-grid",
    ]
    assert all(r["feasible"] for r in rows["results"])


def test_auth_over_the_wire(served):
    anon = InProcessClient(served.app)
    assert anon.get("/v1/jobs").status == 401
    assert InProcessClient(served.app, token="wrong").get("/v1/jobs").status == 401
    with pytest.raises(Exception, match="401"):
        list(sse_events(served, "job-any", token=None))


def test_http_carrier_serves_json_and_404(served):
    # Straight http.client against the socket, no helpers.
    import http.client

    conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"

        conn.request(
            "GET", "/v1/jobs/job-missing",
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        response = conn.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"] == "not-found"
    finally:
        conn.close()


def test_method_and_route_mapping(client):
    assert client.request("DELETE", "/v1/jobs").status == 405
    assert client.get("/v1/nope").status == 404
    assert client.get("/completely/unknown").status == 404
    assert client.get("/v1/backends").json()["backends"]
    configs = client.get("/v1/configs").json()["configs"]
    assert any(c["name"] == "hera-xscale" for c in configs)
    stats = client.get("/v1/stats").json()
    assert "cache" in stats and "jobs" in stats


def test_artifact_of_unknown_job_is_404(client):
    assert client.get("/v1/jobs/job-unknown/artifacts/results.csv").status == 404


def test_events_json_mode_with_cursor(client):
    accepted = client.submit(dict(GRID_SPEC, name="cursor-check"))
    client.wait_job(accepted["id"], poll=0.01)
    full = client.get(f"/v1/jobs/{accepted['id']}/events?stream=false").json()
    assert full["events"][0]["event"] == "state"
    tail = client.get(
        f"/v1/jobs/{accepted['id']}/events?stream=false&after=2"
    ).json()
    assert all(e["seq"] > 2 for e in tail["events"])
    bad = client.get(f"/v1/jobs/{accepted['id']}/events?stream=false&after=x")
    assert bad.status == 400
