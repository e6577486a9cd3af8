"""The job store's retention bound: finished jobs are evicted oldest
first, with their in-memory artifacts; live jobs never are."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api.cache import SolveCache
from repro.service import (
    InMemoryArtifactStore,
    JobNotFoundError,
    JobState,
    JobStore,
    LocalDirArtifactStore,
    ServiceApp,
    ServiceConfig,
    ServiceRequest,
)
from repro.service import jobs as jobs_mod
from repro.service.jobs import MAX_FINISHED_JOBS
from repro.service.specs import parse_experiment_spec
from repro.service.testing import InProcessClient


@pytest.fixture
def spec():
    return parse_experiment_spec(
        {"grid": {"configs": ["hera-xscale"], "rhos": [3.0]}}
    )


def _finish(store: JobStore, job, state=JobState.SUCCEEDED) -> None:
    job.set_state(JobState.RUNNING)
    job.set_state(state)
    store.finish(job)


class TestJobStoreBound:
    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "MAX_FINISHED_JOBS", 2)

    def test_oldest_finished_goes_first_and_live_jobs_stay(self, spec):
        store = JobStore()
        queued = store.create(spec)
        running = store.create(spec)
        running.set_state(JobState.RUNNING)
        a, b, c = (store.create(spec) for _ in range(3))
        _finish(store, b)
        _finish(store, a, JobState.FAILED)
        _finish(store, c)  # b finished first, so b goes
        with pytest.raises(JobNotFoundError):
            store.get(b.id)
        assert [j.id for j in store.list()] == [queued.id, running.id, a.id, c.id]
        assert store.counts() == {
            "queued": 1, "running": 1, "succeeded": 1, "failed": 1,
        }

    def test_in_memory_artifacts_go_with_the_job(self, spec):
        artifacts = InMemoryArtifactStore()
        store = JobStore(artifacts)
        jobs = [store.create(spec) for _ in range(3)]
        for job in jobs:
            artifacts.put(job.id, "results.csv", b"config\n")
            _finish(store, job)
        assert artifacts.list(jobs[0].id) == ()
        assert [a.name for a in artifacts.list(jobs[2].id)] == ["results.csv"]

    def test_local_dir_artifacts_stay_on_disk(self, spec, tmp_path):
        artifacts = LocalDirArtifactStore(tmp_path)
        store = JobStore(artifacts)
        jobs = [store.create(spec) for _ in range(3)]
        for job in jobs:
            artifacts.put(job.id, "results.csv", b"config\n")
            _finish(store, job)
        with pytest.raises(JobNotFoundError):
            store.get(jobs[0].id)
        assert (tmp_path / jobs[0].id / "results.csv").read_bytes() == b"config\n"


    def test_concurrent_finishers_keep_the_bound(self, spec):
        """More finishing threads than cores, with a short switch
        interval: every job is held or evicted exactly once."""
        artifacts = InMemoryArtifactStore()
        store = JobStore(artifacts)
        jobs = [store.create(spec) for _ in range(400)]
        for job in jobs:
            artifacts.put(job.id, "results.csv", b"config\n")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda chunk: [_finish(store, j) for j in chunk],
                    args=(jobs[i::8],),
                )
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        held = {job.id for job in store.list()}
        assert len(held) == len(store) == 2
        assert sum(1 for job in jobs if artifacts.list(job.id)) == 2
        assert all(artifacts.list(job_id) for job_id in held)


def test_soak_of_twice_the_bound_keeps_the_store_flat():
    """More than 2x ``MAX_FINISHED_JOBS`` jobs through the app: the
    store never holds more finished jobs than the bound, evicted ids
    are 404 everywhere, counters keep counting, and a stream opened
    before its job was evicted still ends on the terminal event."""
    artifacts = InMemoryArtifactStore()
    app = ServiceApp(
        ServiceConfig(transport="inline", job_workers=2),
        cache=SolveCache(),
        artifacts=artifacts,
    )
    n_jobs = 2 * MAX_FINISHED_JOBS + 40
    spec = {"grid": {"configs": ["hera-xscale"], "rhos": [3.0]}}
    with app:
        client = InProcessClient(app)
        first = client.submit(spec)["id"]
        stream = app.handle(
            ServiceRequest.make("GET", f"/v1/jobs/{first}/events")
        ).body
        assert next(stream).startswith(b": repro-service")
        ids = [first]
        for _ in range(n_jobs - 1):
            ids.append(client.submit(spec)["id"])
            counts = app.store.counts()
            assert counts["succeeded"] + counts["failed"] <= MAX_FINISHED_JOBS
        assert app.queue.wait_idle(timeout=120.0)

        assert len(app.store) == MAX_FINISHED_JOBS
        assert app.store.counts()["succeeded"] == MAX_FINISHED_JOBS
        assert sum(1 for i in ids if artifacts.list(i)) == MAX_FINISHED_JOBS
        for path in ("", "/events?stream=false", "/artifacts",
                     "/artifacts/results.csv"):
            assert client.get(f"/v1/jobs/{first}{path}").status == 404
        metrics = client.get("/metrics").text
        assert (
            f'repro_service_jobs_completed_total{{state="succeeded"}} {n_jobs}'
            in metrics
        )
        assert f'repro_service_jobs{{state="succeeded"}} {MAX_FINISHED_JOBS}' in metrics

        tail = b"".join(stream).decode()
        assert tail.rstrip().endswith('"state":"succeeded"}')
