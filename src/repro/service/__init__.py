"""Solver-as-a-service: the async HTTP job layer over the pipeline.

The service exposes the :class:`~repro.api.experiment.Experiment`
pipeline as an async job API — ``POST /v1/jobs`` accepts a JSON
experiment spec, execution happens on queue workers over the
process-wide warm worker pool against the shared solve cache, progress
streams as Server-Sent Events, and finished jobs leave CSV/JSON
artifacts in a pluggable store.  See docs/service.md.

The core (:mod:`repro.service.app`) runs on the stdlib threaded server
(:mod:`repro.service.server`) with zero third-party dependencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".artifacts": (
        "ArtifactInfo", "ArtifactNotFoundError", "ArtifactStore", "InMemoryArtifactStore",
        "LocalDirArtifactStore",
    ),
    ".auth": ("AuthOutcome", "TokenAuthenticator"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".specs": ("ExperimentSpec", "parse_experiment_spec"),
    ".jobs": ("Job", "JobEvent", "JobNotFoundError", "JobState", "JobStore"),
    ".queue": ("JobQueue", "ServiceMetrics"),
    ".app": ("ServiceApp", "ServiceRequest", "ServiceResponse"),
    ".config": ("ServiceConfig",),
    ".server": ("ServiceServer", "make_server", "serve"),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .app import ServiceApp, ServiceRequest, ServiceResponse
    from .artifacts import (
        ArtifactInfo, ArtifactNotFoundError, ArtifactStore, InMemoryArtifactStore,
        LocalDirArtifactStore,
    )
    from .auth import AuthOutcome, TokenAuthenticator
    from .config import ServiceConfig
    from .jobs import Job, JobEvent, JobNotFoundError, JobState, JobStore
    from .metrics import Counter, Gauge, Histogram, MetricsRegistry
    from .queue import JobQueue, ServiceMetrics
    from .server import ServiceServer, make_server, serve
    from .specs import ExperimentSpec, parse_experiment_spec
