"""Job records, states and the event log behind the ``/v1/jobs`` API.

A *job* is one accepted experiment spec travelling through
``queued → running → succeeded | failed``.  Each job carries an
append-only, sequence-numbered event log (state changes, per-shard
:class:`~repro.api.experiment.PlanProgress` ticks, artifact
announcements); the SSE endpoint streams that log and uses the
sequence numbers as SSE event ids, so a client reconnecting with
``Last-Event-ID`` replays exactly the events it missed.

Everything here is plain threading — a :class:`threading.Condition`
per job lets any number of stream readers block until the writer (the
queue worker) appends — with no HTTP awareness, so the queue and the
app layers both talk to the same store.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .artifacts import ArtifactStore
    from .specs import ExperimentSpec

__all__ = ["Job", "JobEvent", "JobNotFoundError", "JobState", "JobStore"]

#: Finished jobs a :class:`JobStore` keeps (~80 KB each for a 50-row
#: grid; a pool worker forked later copies the server's heap).
MAX_FINISHED_JOBS = 64


class JobState(Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change."""
        return self in (JobState.SUCCEEDED, JobState.FAILED)


class JobNotFoundError(InvalidParameterError, KeyError):
    """No such job id — maps to HTTP 404."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"job {job_id!r} not found")

    # KeyError.__str__ reprs the message; keep the plain rendering.
    __str__ = Exception.__str__

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return (type(self), (self.job_id,))


@dataclass(frozen=True)
class JobEvent:
    """One append-only log entry of a job.

    ``seq`` is the job-local, strictly increasing sequence number (the
    SSE event id); ``kind`` is the SSE event name (``state``,
    ``progress``, ``artifact``, ``result``, ``error``).
    """

    seq: int
    kind: str
    data: dict[str, Any]
    created: float

    def as_payload(self) -> dict[str, Any]:
        """JSON-ready rendering (also used by the JSON event list)."""
        return {"seq": self.seq, "event": self.kind, **self.data}


class Job:
    """One submitted job: mutable state plus its event log.

    Mutations happen under the job's condition and notify every waiting
    stream reader; reads take consistent snapshots.  The queue worker
    is the only writer after submission, so event ``seq`` values are
    dense and strictly increasing.
    """

    def __init__(self, job_id: str, spec: "ExperimentSpec"):
        self.id = job_id
        self.spec = spec
        self.created = time.time()
        self._cond = threading.Condition()
        self._state = JobState.QUEUED
        self._error: str | None = None
        self._progress: dict[str, Any] | None = None
        self._result: dict[str, Any] | None = None
        self._artifacts: list[str] = []
        self._attempts = 0
        self._events: list[JobEvent] = []
        self._append("state", {"state": JobState.QUEUED.value})

    # -- writes --------------------------------------------------------
    def _append(self, kind: str, data: dict[str, Any]) -> JobEvent:
        # Callers either hold the condition already or are the
        # constructor; re-entrant acquisition keeps both simple.
        with self._cond:
            event = JobEvent(
                seq=len(self._events) + 1,
                kind=kind,
                data=data,
                created=time.time(),
            )
            self._events.append(event)
            self._cond.notify_all()
            return event

    def set_state(self, state: JobState, *, error: str | None = None) -> None:
        """Transition the job and log the ``state`` event."""
        with self._cond:
            if self._state.terminal:
                raise InvalidParameterError(
                    f"job {self.id} already {self._state.value}; cannot move "
                    f"to {state.value}"
                )
            self._state = state
            self._error = error
            data: dict[str, Any] = {"state": state.value}
            if error is not None:
                data["error"] = error
            self._append("state", data)

    def record_progress(self, data: dict[str, Any]) -> None:
        """Log one per-shard progress tick."""
        with self._cond:
            self._progress = data
            self._append("progress", data)

    def record_artifact(self, name: str, size: int) -> None:
        """Announce one stored artifact."""
        with self._cond:
            self._artifacts.append(name)
            self._append("artifact", {"name": name, "size": size})

    def record_result(self, summary: dict[str, Any]) -> None:
        """Attach the result summary of a finished solve."""
        with self._cond:
            self._result = summary
            self._append("result", summary)

    def record_attempt(self, attempt: int, reason: str) -> None:
        """Log one crash-recovery re-execution."""
        with self._cond:
            self._attempts = attempt
            self._append("retry", {"attempt": attempt, "reason": reason})

    # -- reads ---------------------------------------------------------
    @property
    def state(self) -> JobState:
        with self._cond:
            return self._state

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready status document (the ``GET /v1/jobs/{id}`` body)."""
        with self._cond:
            doc: dict[str, Any] = {
                "id": self.id,
                "state": self._state.value,
                "created": round(self.created, 6),
                "spec": self.spec.summary(),
                "events": len(self._events),
                "attempts": self._attempts,
                "artifacts": list(self._artifacts),
            }
            if self._progress is not None:
                doc["progress"] = dict(self._progress)
            if self._result is not None:
                doc["result"] = dict(self._result)
            if self._error is not None:
                doc["error"] = self._error
            return doc

    def _after(self, after_seq: int) -> tuple[JobEvent, ...]:
        # ``_append`` keeps ``seq == index + 1``: the events after a
        # cursor are a slice, not a scan.
        return tuple(self._events[max(after_seq, 0):])

    def events_since(self, after_seq: int) -> tuple[JobEvent, ...]:
        """All events with ``seq > after_seq`` (non-blocking)."""
        with self._cond:
            return self._after(after_seq)

    def wait_events(
        self, after_seq: int, timeout: float | None = None
    ) -> tuple[JobEvent, ...]:
        """Events after ``after_seq``, blocking up to ``timeout``.

        Returns immediately when events are already pending or the job
        is terminal (a terminal job appends nothing further); an empty
        tuple means the timeout elapsed — the streamer's cue to emit a
        keepalive.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                pending = self._after(after_seq)
                if pending or self._state.terminal:
                    return pending
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return ()
                self._cond.wait(remaining)


class JobStore:
    """The in-memory registry of this process's live jobs and its last
    :data:`MAX_FINISHED_JOBS` finished ones (older ones are evicted,
    with their ``artifacts`` entries)."""

    def __init__(self, artifacts: "ArtifactStore | None" = None) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self._artifacts = artifacts

    def create(self, spec: "ExperimentSpec") -> Job:
        """Register a new queued job for ``spec``."""
        job_id = f"job-{uuid.uuid4().hex[:16]}"
        job = Job(job_id, spec)
        with self._lock:
            self._jobs[job_id] = job
        return job

    def finish(self, job: Job) -> None:
        """Count ``job`` as finished; evict past the retention bound."""
        with self._lock:
            self._finished.append(job.id)
            evicted = [
                self._jobs.pop(self._finished.popleft())
                for _ in range(len(self._finished) - MAX_FINISHED_JOBS)
            ]
        for old in evicted:
            if self._artifacts is not None:
                self._artifacts.discard(old.id)

    def get(self, job_id: str) -> Job:
        """The job, or :class:`JobNotFoundError`."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobNotFoundError(job_id) from None

    def list(self) -> tuple[Job, ...]:
        """All held jobs, oldest first."""
        with self._lock:
            return tuple(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Held jobs per state (the ``repro_service_jobs`` gauge source)."""
        out = dict.fromkeys((s.value for s in JobState), 0)
        with self._lock:
            for job in self._jobs.values():
                out[job.state.value] += 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
