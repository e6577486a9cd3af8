"""The job model and the queue, below the HTTP surface."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.cache import SolveCache
from repro.exceptions import InvalidParameterError
from repro.service import (
    InMemoryArtifactStore,
    JobNotFoundError,
    JobQueue,
    JobState,
    JobStore,
    ServiceConfig,
)
from repro.service.config import TRANSPORT_ENV, TRANSPORTS
from repro.service.queue import ServiceMetrics
from repro.service.metrics import MetricsRegistry
from repro.service.specs import parse_experiment_spec


@pytest.fixture
def spec():
    return parse_experiment_spec(
        {
            "name": "queue-test",
            "grid": {
                "configs": ["hera-xscale"],
                "rhos": {"start": 2.6, "stop": 3.6, "count": 4},
            },
        }
    )


class TestServiceConfig:
    def test_transport_kinds(self):
        assert TRANSPORTS == ("warm", "inline")
        for kind in TRANSPORTS:
            assert ServiceConfig(transport=kind).transport == kind

    def test_retired_pooled_transport_rejected_with_valid_kinds(self, monkeypatch):
        with pytest.raises(InvalidParameterError, match="warm, inline"):
            ServiceConfig(transport="pooled")
        monkeypatch.setenv(TRANSPORT_ENV, "pooled")
        with pytest.raises(InvalidParameterError, match="warm, inline"):
            ServiceConfig.from_env()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_max_workers_rejected(self, workers):
        with pytest.raises(InvalidParameterError, match="max_workers must be >= 1"):
            ServiceConfig(max_workers=workers)

    def test_max_workers_none_or_positive_accepted(self):
        assert ServiceConfig().max_workers is None
        assert ServiceConfig(max_workers=1).max_workers == 1

    def test_serve_cli_rejects_bad_workers_and_pooled(self, capsys, monkeypatch):
        import repro.service
        from repro.cli import main

        def app_built(config):
            raise AssertionError(f"the service was built with {config}")

        # Both must fail before any app (or socket) exists.
        monkeypatch.setattr(repro.service, "ServiceApp", app_built)
        with pytest.raises(InvalidParameterError, match="max_workers must be >= 1"):
            main(["serve", "--workers", "0", "--port", "0"])
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--transport", "pooled", "--port", "0"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'pooled'" in capsys.readouterr().err


class TestJobModel:
    def test_lifecycle_and_event_log(self, spec):
        store = JobStore()
        job = store.create(spec)
        assert job.state is JobState.QUEUED
        assert store.get(job.id) is job
        job.set_state(JobState.RUNNING)
        job.record_progress({"done_shards": 1, "total_shards": 2})
        job.record_artifact("results.csv", 123)
        job.set_state(JobState.SUCCEEDED)
        kinds = [e.kind for e in job.events_since(0)]
        assert kinds == ["state", "state", "progress", "artifact", "state"]
        seqs = [e.seq for e in job.events_since(0)]
        assert seqs == [1, 2, 3, 4, 5]
        assert job.events_since(3)[0].kind == "artifact"

    def test_terminal_state_is_final(self, spec):
        job = JobStore().create(spec)
        job.set_state(JobState.FAILED, error="boom")
        assert job.state.terminal
        with pytest.raises(InvalidParameterError):
            job.set_state(JobState.RUNNING)
        assert job.snapshot()["error"] == "boom"

    def test_snapshot_shape(self, spec):
        job = JobStore().create(spec)
        doc = job.snapshot()
        assert doc["id"] == job.id
        assert doc["state"] == "queued"
        assert doc["spec"]["scenarios"] == 4
        assert doc["artifacts"] == []

    def test_events_since_cursor_edges(self, spec):
        job = JobStore().create(spec)
        job.set_state(JobState.RUNNING)
        job.record_progress({"done_shards": 1})
        assert [e.seq for e in job.events_since(-5)] == [1, 2, 3]
        for cursor in range(4):
            assert [e.seq for e in job.events_since(cursor)] == list(
                range(cursor + 1, 4)
            )
        assert job.events_since(99) == ()

    def test_wait_events_blocks_until_append(self, spec):
        job = JobStore().create(spec)
        got: list = []

        def reader():
            got.extend(job.wait_events(1, timeout=10.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        job.record_progress({"done_shards": 1})
        thread.join(timeout=10.0)
        assert [e.kind for e in got] == ["progress"]

    def test_wait_events_times_out_quietly(self, spec):
        job = JobStore().create(spec)
        start = time.monotonic()
        assert job.wait_events(1, timeout=0.05) == ()
        assert time.monotonic() - start >= 0.04

    def test_wait_events_returns_immediately_on_terminal(self, spec):
        job = JobStore().create(spec)
        job.set_state(JobState.FAILED, error="x")
        drained = job.wait_events(2, timeout=30.0)
        assert drained == ()  # no wait: terminal jobs append nothing more

    def test_unknown_job_raises(self):
        with pytest.raises(JobNotFoundError):
            JobStore().get("job-missing")

    def test_counts(self, spec):
        store = JobStore()
        store.create(spec)
        job = store.create(spec)
        job.set_state(JobState.RUNNING)
        assert store.counts() == {
            "queued": 1, "running": 1, "succeeded": 0, "failed": 0,
        }
        assert len(store) == 2


class TestJobQueue:
    @pytest.fixture
    def harness(self):
        store = JobStore()
        cache = SolveCache()
        registry = MetricsRegistry()
        queue = JobQueue(
            store,
            ServiceConfig(transport="inline", job_workers=2),
            cache=cache,
            artifacts=InMemoryArtifactStore(),
            metrics=ServiceMetrics.create(registry),
        )
        queue.start()
        yield store, queue, cache
        queue.shutdown()

    def test_executes_to_success_with_artifacts(self, harness, spec):
        store, queue, _ = harness
        job = store.create(spec)
        queue.submit(job)
        assert queue.wait_idle(timeout=60.0)
        assert job.state is JobState.SUCCEEDED
        doc = job.snapshot()
        assert doc["result"]["scenarios"] == 4
        assert set(doc["artifacts"]) == {"results.csv", "results.json"}
        assert queue.artifacts.get(job.id, "results.csv").startswith(b"config")
        assert queue.metrics.jobs_completed.value(state="succeeded") == 1.0

    def test_progress_events_cover_all_scenarios(self, harness, spec):
        store, queue, _ = harness
        job = store.create(spec)
        queue.submit(job)
        queue.wait_idle(timeout=60.0)
        progress = [e for e in job.events_since(0) if e.kind == "progress"]
        assert progress, "inline execution must still tick per shard"
        assert progress[-1].data["fraction"] == 1.0
        assert progress[-1].data["total_scenarios"] == 4

    def test_shared_cache_across_jobs(self, harness, spec):
        store, queue, cache = harness
        first = store.create(spec)
        queue.submit(first)
        queue.wait_idle(timeout=60.0)
        misses_after_first = cache.stats()[1]
        second = store.create(spec)
        queue.submit(second)
        queue.wait_idle(timeout=60.0)
        assert second.state is JobState.SUCCEEDED
        # The identical re-submission is pure replay: no new misses.
        assert cache.stats()[1] == misses_after_first
        assert second.snapshot()["result"]["cache_hits"] == 4

    def test_failing_job_is_failed_not_crashed(self, harness):
        store, queue, _ = harness
        # A poisoned chaos shard raises deterministically: the job
        # fails with the typed error, and the queue survives.
        bad = parse_experiment_spec(
            {
                "scenarios": [
                    {
                        "config": "hera-xscale",
                        "rho": 3.0,
                        "backend": "chaos-service-backend",
                        "label": "poison",
                    }
                ],
            }
        )
        job = store.create(bad)
        queue.submit(job)
        queue.wait_idle(timeout=60.0)
        assert job.state is JobState.FAILED
        assert "error" in job.snapshot()
        # The queue still executes afterwards.
        ok = store.create(
            parse_experiment_spec(
                {"grid": {"configs": ["hera-xscale"], "rhos": [3.0]}}
            )
        )
        queue.submit(ok)
        queue.wait_idle(timeout=60.0)
        assert ok.state is JobState.SUCCEEDED


class TestQueueBound:
    """At most MAX_QUEUED_JOBS accepted jobs wait or run at once; the
    service refuses more with 503 + Retry-After and creates no job."""

    @pytest.fixture
    def held(self, monkeypatch):
        """The bound patched to 2, and every job worker held on an event
        until the test releases it."""
        from repro.service import queue as queue_module

        monkeypatch.setattr(queue_module, "MAX_QUEUED_JOBS", 2)
        gate = threading.Event()
        run_job = JobQueue._run_job

        def held_run(self, job):
            assert gate.wait(timeout=60.0)
            run_job(self, job)

        monkeypatch.setattr(JobQueue, "_run_job", held_run)
        yield gate
        gate.set()

    def test_full_queue_answers_503_and_creates_no_job(self, client, inline_app, held):
        # held is set up last, so it releases the workers before the
        # app shuts down even when an assert fails.
        small = {"grid": {"configs": ["hera-xscale"], "rhos": [3.0]}}
        first = client.submit(small)
        client.submit(small)
        refused = client.post_json("/v1/jobs", small)
        assert refused.status == 503
        assert refused.json()["error"] == "queue-full"
        assert refused.header("Retry-After") == "1"
        assert len(inline_app.store) == 2
        held.set()
        assert inline_app.queue.wait_idle(timeout=60.0)
        assert client.wait_job(first["id"], timeout=60.0)["state"] == "succeeded"
        assert client.post_json("/v1/jobs", small).status == 202

    def test_concurrent_submissions_never_pass_the_bound(self, client, inline_app, held):
        import sys

        small = {"grid": {"configs": ["hera-xscale"], "rhos": [3.0]}}
        statuses: list[int] = []
        lock = threading.Lock()
        start = threading.Barrier(8)

        def post_many() -> None:
            start.wait(timeout=60.0)
            for _ in range(4):
                status = client.post_json("/v1/jobs", small).status
                with lock:
                    statuses.append(status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=post_many) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(set(statuses)) == [202, 503]
        assert statuses.count(202) == 2 == len(inline_app.store)
