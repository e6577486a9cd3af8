"""The async job queue: accepted specs become executed plans.

Submissions land on a bounded in-process queue drained by a small pool
of worker threads: at most :data:`MAX_QUEUED_JOBS` accepted jobs wait
or run at once, and the service answers 503 beyond that.  Each worker compiles the job's
:class:`~repro.api.experiment.Experiment` into a deduplicated
:class:`~repro.api.experiment.ExecutionPlan` and executes it over the
configured transport — by default the process-wide warm worker pool —
against the *shared* process-wide solve cache, so a re-submitted grid
(or any grid overlapping an earlier one) serves its points from cache
instead of re-solving.

Crash recovery rides on the plan layer's per-shard cache writes: when
the transport reports a :class:`~repro.exceptions.WorkerCrashError`
(a pool worker was SIGKILLed / OOM-killed mid-shard), the worker
re-executes the same plan — completed shards replay from cache for
free, only the lost remainder is solved again — up to the configured
attempt budget.  The warm pool runs one plan at a time (its recycling
epoch is per-plan), so execution over a shared pool is serialised by a
transport lock; queue workers still overlap on validation, artifact
writing and analysis export.
"""

from __future__ import annotations

import io
import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

# The job exports' own lazy imports load with the service, so no job
# pays them.
from ..analysis import verbs as _verbs  # noqa: F401
from ..api.experiment import PlanProgress
from ..exceptions import ReproError, WorkerCrashError
from ..reporting import serialize as _serialize  # noqa: F401
from ..reporting.csvio import write_results_csv
from ..reporting.jsonio import encode_json
from .jobs import Job, JobState
from .jsonlog import get_logger, log_event
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.cache import SolveCache
    from ..api.result import ResultSet
    from ..exec.base import Transport
    from .artifacts import ArtifactStore
    from .config import ServiceConfig
    from .jobs import JobStore

__all__ = ["JobQueue", "ServiceMetrics", "MAX_QUEUED_JOBS"]

_log = get_logger("queue")

#: Accepted jobs that may be queued or running at once; a submission
#: beyond it is refused (HTTP 503 with ``Retry-After``) instead of
#: growing the queue without bound.
MAX_QUEUED_JOBS = 256


@dataclass(frozen=True)
class ServiceMetrics:
    """The instruments the job layer updates while executing."""

    jobs_submitted: Counter
    jobs_completed: Counter  # label: state
    jobs_inflight: Gauge
    shards_completed: Counter  # label: backend
    shard_seconds: Histogram  # label: backend
    scenarios_solved: Counter  # label: backend
    job_seconds: Histogram  # label: state

    @classmethod
    def create(cls, registry: MetricsRegistry) -> "ServiceMetrics":
        """Register the job instruments on ``registry``."""
        return cls(
            jobs_submitted=registry.counter(
                "repro_service_jobs_submitted_total", "Jobs accepted for execution"
            ),
            jobs_completed=registry.counter(
                "repro_service_jobs_completed_total",
                "Jobs finished, by terminal state",
                ("state",),
            ),
            jobs_inflight=registry.gauge(
                "repro_service_jobs_inflight", "Jobs currently executing"
            ),
            shards_completed=registry.counter(
                "repro_service_shards_completed_total",
                "Solve shards completed, by backend",
                ("backend",),
            ),
            shard_seconds=registry.histogram(
                "repro_service_shard_seconds",
                "Wall time between completed solve shards, by backend",
                ("backend",),
            ),
            scenarios_solved=registry.counter(
                "repro_service_scenarios_solved_total",
                "Scenarios newly solved (cache replays excluded), by backend",
                ("backend",),
            ),
            job_seconds=registry.histogram(
                "repro_service_job_seconds",
                "End-to-end job wall time, by terminal state",
                ("state",),
            ),
        )


class JobQueue:
    """Worker threads executing queued jobs over a shared transport."""

    def __init__(
        self,
        store: "JobStore",
        config: "ServiceConfig",
        *,
        cache: "SolveCache",
        artifacts: "ArtifactStore",
        metrics: ServiceMetrics | None = None,
        transport: "Transport | str | None" = None,
    ):
        self.store = store
        self.config = config
        self.cache = cache
        self.artifacts = artifacts
        self.metrics = metrics
        #: What ``plan.execute(transport=...)`` receives; defaults to
        #: the config's transport kind string.
        self.transport: "Transport | str" = (
            transport if transport is not None else config.transport
        )
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopping = False
        # The warm pool executes one plan at a time (per-plan recycle
        # epochs), so plan execution over a shared transport serialises
        # here; inline transports do not need it but stay correct.
        self._transport_lock = threading.Lock()
        self._idle = threading.Condition()
        self._inflight = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._started:
            return
        self._started = True
        for i in range(self.config.job_workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-job-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)

    @property
    def full(self) -> bool:
        """Whether :data:`MAX_QUEUED_JOBS` jobs are queued or running."""
        with self._idle:
            return self._inflight >= MAX_QUEUED_JOBS

    def submit(self, job: Job) -> None:
        """Enqueue one accepted job (the caller checks :attr:`full`)."""
        if self._stopping:
            raise ReproError("the job queue is shutting down")
        if not self._started:
            self.start()
        with self._idle:
            self._inflight += 1
        if self.metrics is not None:
            self.metrics.jobs_submitted.inc()
        log_event(_log, "job.queued", job_id=job.id, scenarios=len(job.spec))
        self._queue.put(job)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every submitted job reached a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run_job(job)
            finally:
                with self._idle:
                    self._inflight -= 1
                    self._idle.notify_all()

    def _run_job(self, job: Job) -> None:
        started = time.monotonic()
        if self.metrics is not None:
            self.metrics.jobs_inflight.inc()
        job.set_state(JobState.RUNNING)
        log_event(_log, "job.started", job_id=job.id, scenarios=len(job.spec))
        try:
            results = self._execute(job)
            self._export_artifacts(job, results)
            elapsed = time.monotonic() - started
            job.record_result(
                {
                    "scenarios": len(results),
                    "cache_hits": results.cache_hits(),
                    "backends": list(results.backends_used()),
                    "solve_wall_time": round(results.total_wall_time(), 6),
                    "elapsed_seconds": round(elapsed, 6),
                }
            )
            job.set_state(JobState.SUCCEEDED)
            self._finish(job, JobState.SUCCEEDED, started)
        except ReproError as exc:
            job.set_state(JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
            self._finish(job, JobState.FAILED, started, error=exc)
        except Exception as exc:  # noqa: BLE001 - a job must not kill its worker
            job.set_state(JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
            self._finish(job, JobState.FAILED, started, error=exc)

    def _finish(
        self,
        job: Job,
        state: JobState,
        started: float,
        error: BaseException | None = None,
    ) -> None:
        elapsed = time.monotonic() - started
        self.store.finish(job)
        if self.metrics is not None:
            self.metrics.jobs_inflight.dec()
            self.metrics.jobs_completed.inc(state=state.value)
            self.metrics.job_seconds.observe(elapsed, state=state.value)
        if error is None:
            log_event(
                _log, "job.finished", job_id=job.id, state=state.value,
                seconds=round(elapsed, 6),
            )
        else:
            log_event(
                _log, "job.failed", job_id=job.id,
                error=f"{type(error).__name__}: {error}",
                seconds=round(elapsed, 6),
            )

    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> "ResultSet":
        spec = job.spec
        plan = spec.experiment().plan(spec.backend)
        last_tick = time.monotonic()

        def tick(progress: PlanProgress) -> None:
            nonlocal last_tick
            now = time.monotonic()
            job.record_progress(
                {
                    "done_shards": progress.done_shards,
                    "total_shards": progress.total_shards,
                    "backend": progress.backend,
                    "solved_scenarios": progress.solved_scenarios,
                    "total_scenarios": progress.total_scenarios,
                    "fraction": round(progress.fraction, 6),
                }
            )
            if self.metrics is not None:
                self.metrics.shards_completed.inc(backend=progress.backend)
                self.metrics.shard_seconds.observe(
                    now - last_tick, backend=progress.backend
                )
                self.metrics.scenarios_solved.inc(
                    progress.solved_scenarios, backend=progress.backend
                )
            last_tick = now

        attempt = 0
        while True:
            try:
                with self._transport_lock:
                    return plan.execute(
                        cache=self.cache,
                        transport=self.transport,
                        progress=tick,
                    )
            except WorkerCrashError as exc:
                # Completed shards are already in the solve cache; the
                # re-execution replays them and solves the remainder.
                attempt += 1
                if attempt >= self.config.resume_attempts:
                    raise
                job.record_attempt(attempt, f"{type(exc).__name__}: {exc}")
                log_event(
                    _log, "job.resumed", job_id=job.id, attempt=attempt,
                    reason=str(exc),
                )

    # ------------------------------------------------------------------
    def _export_artifacts(self, job: Job, results: "ResultSet") -> None:
        spec = job.spec
        exports: list[tuple[str, bytes]] = []
        if "csv" in spec.artifacts:
            exports.append(("results.csv", _results_csv_bytes(results)))
        if "json" in spec.artifacts:
            payload = {
                "name": spec.name,
                "job_id": job.id,
                "results": results.to_dicts(),
            }
            exports.append(
                ("results.json", encode_json(payload).encode())
            )
        for verb in spec.analyses:
            exports.append((f"{verb}.json", _analysis_json_bytes(results, verb)))
        for name, data in exports:
            info = self.artifacts.put(job.id, name, data)
            job.record_artifact(info.name, info.size)


def _results_csv_bytes(results: "ResultSet") -> bytes:
    """The result-set CSV export, rendered in memory."""
    return write_results_csv(io.StringIO(), results).getvalue().encode()


def _analysis_json_bytes(results: "ResultSet", verb: str) -> bytes:
    """One analysis verb's JSON export."""
    if verb == "frontier":
        rendered = results.frontier().to_json()
    elif verb == "sensitivity":
        rendered = results.sensitivity().to_json()
    elif verb == "crossover":
        rendered = results.crossover().to_json()
    else:  # pragma: no cover - the spec codec rejects unknown verbs
        raise ReproError(f"unknown analysis verb {verb!r}")
    return str(rendered).encode()
