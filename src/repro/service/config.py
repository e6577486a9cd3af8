"""Service configuration: one frozen value wiring the whole app.

A :class:`ServiceConfig` is everything the solver service needs to
know about its environment — auth tokens, the artifact directory, the
execution transport, queue sizing, payload limits.  It is deliberately
a plain frozen dataclass (no framework settings machinery): tests
construct one directly, the CLI builds one from flags, and
:meth:`ServiceConfig.from_env` fills the common deployment knobs from
``REPRO_SERVICE_*`` environment variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from ..exceptions import InvalidParameterError

__all__ = ["ServiceConfig", "TRANSPORTS"]

#: Transport kinds a job may execute on (docs/execution.md).
TRANSPORTS: tuple[str, ...] = ("warm", "inline")

#: Environment variable carrying a comma-separated bearer-token list.
TOKENS_ENV = "REPRO_SERVICE_TOKENS"

#: Environment variable carrying the artifact-store root directory.
ARTIFACT_DIR_ENV = "REPRO_SERVICE_ARTIFACT_DIR"

#: Environment variable selecting the execution transport.
TRANSPORT_ENV = "REPRO_SERVICE_TRANSPORT"


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration of one :class:`~repro.service.app.ServiceApp`.

    Parameters
    ----------
    tokens:
        Accepted bearer tokens for the ``/v1`` API.  Empty means the
        service runs *open* (development mode); any non-empty tuple
        makes every ``/v1`` request require ``Authorization: Bearer
        <token>``.  ``/healthz`` and ``/metrics`` stay open either way
        (probes and scrapers don't carry credentials).
    artifact_dir:
        Root directory of the local artifact store; ``None`` creates a
        private temporary directory at app construction.
    transport:
        Where job plans execute: ``"warm"`` (the process-wide
        :class:`~repro.exec.warm.WarmWorkerPool`, spawned at app
        startup and drained at shutdown) or ``"inline"`` (the calling
        thread — what tests use).
    max_workers:
        Fleet size of the warm pool, ``>= 1`` (``None`` = the pool's
        CPU-capped default).
    job_workers:
        Executor threads draining the job queue.  Plans routed through
        the shared warm pool serialise on it regardless (the pool runs
        one plan at a time), so extra workers only overlap
        non-transport work (artifact writes, analyses).
    max_points:
        Per-job scenario cap; a spec whose grid exceeds it is rejected
        with a 422 instead of occupying the queue.
    resume_attempts:
        How many times a job re-executes its plan after a
        :class:`~repro.exceptions.WorkerCrashError`.  Each re-execute
        resumes from the per-shard cache writes, so only the lost
        remainder is re-solved — the service's crash-recovery story.
    json_logs:
        Emit structured JSON log lines on the ``repro.service`` logger
        (the ``repro serve`` default; tests keep it off).
    keepalive_seconds:
        SSE idle interval after which a comment frame is emitted to
        hold the connection open through proxies.
    """

    tokens: tuple[str, ...] = ()
    artifact_dir: Path | None = None
    transport: str = "warm"
    max_workers: int | None = None
    job_workers: int = 2
    max_points: int = 200_000
    resume_attempts: int = 3
    json_logs: bool = False
    keepalive_seconds: float = 15.0

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise InvalidParameterError(
                f"unknown service transport {self.transport!r}; "
                f"expected one of: {', '.join(TRANSPORTS)}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise InvalidParameterError(
                "max_workers must be >= 1 (or None for the default)"
            )
        if self.job_workers < 1:
            raise InvalidParameterError("job_workers must be >= 1")
        if self.max_points < 1:
            raise InvalidParameterError("max_points must be >= 1")
        if self.resume_attempts < 0:
            raise InvalidParameterError("resume_attempts must be >= 0")
        if self.keepalive_seconds <= 0:
            raise InvalidParameterError("keepalive_seconds must be positive")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.artifact_dir is not None:
            object.__setattr__(self, "artifact_dir", Path(self.artifact_dir))

    @property
    def auth_enabled(self) -> bool:
        """True when bearer-token auth guards the ``/v1`` API."""
        return bool(self.tokens)

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServiceConfig":
        """A config seeded from ``REPRO_SERVICE_*`` variables.

        ``REPRO_SERVICE_TOKENS`` (comma-separated bearer tokens),
        ``REPRO_SERVICE_ARTIFACT_DIR`` and ``REPRO_SERVICE_TRANSPORT``
        are read when set; explicit keyword ``overrides`` win over the
        environment.
        """
        env: dict[str, Any] = {}
        raw_tokens = os.environ.get(TOKENS_ENV)
        if raw_tokens:
            env["tokens"] = tuple(
                tok for tok in (t.strip() for t in raw_tokens.split(",")) if tok
            )
        raw_dir = os.environ.get(ARTIFACT_DIR_ENV)
        if raw_dir:
            env["artifact_dir"] = Path(raw_dir)
        raw_transport = os.environ.get(TRANSPORT_ENV)
        if raw_transport:
            env["transport"] = raw_transport
        env.update(overrides)
        return cls(**env)

    def with_tokens(self, *tokens: str) -> "ServiceConfig":
        """A copy accepting exactly ``tokens``."""
        return replace(self, tokens=tuple(tokens))
