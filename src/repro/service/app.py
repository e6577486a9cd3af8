"""The solver service core: routes, auth, lifespan — no web framework.

:class:`ServiceApp` is the whole HTTP surface expressed over two small
value types (:class:`ServiceRequest` in, :class:`ServiceResponse` out)
so it binds to the stdlib threaded server (:mod:`repro.service.server`)
or runs directly in-process for tests (:mod:`repro.service.testing`).

Routes::

    GET  /healthz                          liveness (open)
    GET  /metrics                          Prometheus text format (open)
    POST /v1/jobs                          submit an experiment spec -> 202
    GET  /v1/jobs                          list job statuses
    GET  /v1/jobs/{id}                     one job's status document
    GET  /v1/jobs/{id}/events              SSE stream of the job's event log
    GET  /v1/jobs/{id}/artifacts           list a job's artifacts
    GET  /v1/jobs/{id}/artifacts/{name}    download one artifact
    GET  /v1/backends                      registered solver backends
    GET  /v1/configs                       platform configuration catalog
    GET  /v1/stats                         cache / pool / queue statistics

Everything under ``/v1`` is bearer-token guarded when tokens are
configured.  Error mapping is total and typed: a malformed spec is a
422 carrying field paths (:class:`~repro.exceptions.InvalidSpecError`),
unknown ids are 404s, bad parameters 400s — a client mistake is never
a 500.

The app owns the lifespan of its moving parts: :meth:`startup` starts
the queue workers and pre-warms the process-wide worker pool, and
:meth:`shutdown` drains both — the pool is tied to the app, not to
interpreter exit.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from ..api.backends import available_backends
from ..api.cache import DEFAULT_CACHE, SolveCache
from ..exceptions import InvalidParameterError, InvalidSpecError, ReproError
from ..platforms.catalog import configuration_names, get_configuration
from ..reporting.jsonio import encode_json
from .artifacts import (
    ArtifactNotFoundError,
    ArtifactStore,
    InMemoryArtifactStore,
    LocalDirArtifactStore,
)
from .auth import AuthOutcome, TokenAuthenticator
from .config import ServiceConfig
from .jobs import Job, JobNotFoundError, JobStore
from .jsonlog import configure_json_logging, get_logger, log_event
from .metrics import MetricsRegistry, Sample
from .queue import JobQueue, ServiceMetrics
from .specs import parse_experiment_spec

__all__ = ["ServiceApp", "ServiceRequest", "ServiceResponse"]

_log = get_logger("app")

#: Response body iterator chunk type for streaming routes (SSE).
Body = bytes | Iterator[bytes]


@dataclass(frozen=True)
class ServiceRequest:
    """One HTTP request, carrier-neutral.

    ``headers`` keys are lower-cased by every adapter; ``path`` is the
    decoded path without the query string.
    """

    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def make(
        cls,
        method: str,
        target: str,
        *,
        headers: Mapping[str, str] | None = None,
        body: bytes = b"",
    ) -> "ServiceRequest":
        """Build a request from a raw ``method`` + request target."""
        parts = urlsplit(target)
        return cls(
            method=method.upper(),
            path=parts.path or "/",
            query=dict(parse_qsl(parts.query)),
            headers={k.lower(): v for k, v in (headers or {}).items()},
            body=body,
        )

    def json(self) -> Any:
        """The parsed JSON body; :class:`InvalidParameterError` on
        syntax errors (mapped to 400 by the router)."""
        if not self.body:
            raise InvalidParameterError("request body is empty; expected JSON")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"request body is not valid JSON: {exc}") from None


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP response: status, headers, bytes-or-stream body."""

    status: int
    headers: tuple[tuple[str, str], ...]
    body: Body

    @property
    def streaming(self) -> bool:
        """True when the body is an iterator (SSE): the carrier must
        flush chunk by chunk and frame by connection close."""
        return not isinstance(self.body, bytes)

    @classmethod
    def json(
        cls,
        payload: Any,
        *,
        status: int = 200,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> "ServiceResponse":
        body = encode_json(payload).encode() + b"\n"
        return cls(
            status=status,
            headers=(("Content-Type", "application/json"), *headers),
            body=body,
        )

    @classmethod
    def text(
        cls,
        content: str,
        *,
        status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
    ) -> "ServiceResponse":
        return cls(
            status=status,
            headers=(("Content-Type", content_type),),
            body=content.encode(),
        )


class ServiceApp:
    """The solver-as-a-service application (carrier-neutral core)."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        cache: SolveCache | None = None,
        artifacts: ArtifactStore | None = None,
        transport: Any = None,
    ):
        self.config = config or ServiceConfig()
        #: The process-wide solve cache by default: repeated or
        #: overlapping submissions across requests share solved points.
        self.cache = cache if cache is not None else DEFAULT_CACHE
        if artifacts is not None:
            self.artifacts = artifacts
        elif self.config.artifact_dir is not None:
            self.artifacts = LocalDirArtifactStore(self.config.artifact_dir)
        else:
            self.artifacts = InMemoryArtifactStore()
        self.auth = TokenAuthenticator.from_tokens(self.config.tokens)
        self.registry = MetricsRegistry()
        self.store = JobStore(self.artifacts)
        self.metrics = ServiceMetrics.create(self.registry)
        self.queue = JobQueue(
            self.store,
            self.config,
            cache=self.cache,
            artifacts=self.artifacts,
            metrics=self.metrics,
            transport=transport,
        )
        # Capacity check, job creation and enqueue happen as one step,
        # so a refused submission never leaves a job behind.
        self._admission = threading.Lock()
        self._auth_refused = self.registry.counter(
            "repro_service_auth_refused_total",
            "Requests refused authentication, by reason",
            ("reason",),
        )
        self._requests = self.registry.counter(
            "repro_service_requests_total",
            "HTTP requests handled, by route and status",
            ("route", "status"),
        )
        self.registry.register_callback(self._collect_cache_metrics)
        self.registry.register_callback(self._collect_job_metrics)
        self.registry.register_callback(self._collect_pool_metrics)
        self._started = False

    # ------------------------------------------------------------------
    # Lifespan
    # ------------------------------------------------------------------
    def startup(self) -> None:
        """Start queue workers; pre-warm the shared worker pool."""
        if self._started:
            return
        self._started = True
        if self.config.json_logs:
            configure_json_logging()
        self.queue.start()
        if self.queue.transport == "warm":
            from ..exec.warm import warm_default_pool

            warm_default_pool(self.config.max_workers)
        log_event(
            _log, "service.started",
            transport=str(self.queue.transport),
            job_workers=self.config.job_workers,
            auth=self.auth.enabled,
        )

    def shutdown(self) -> None:
        """Drain the queue, then the warm pool (graceful lifespan end)."""
        if not self._started:
            return
        self._started = False
        self.queue.shutdown(wait=True)
        if self.queue.transport == "warm":
            from ..exec.warm import shutdown_default_pool

            shutdown_default_pool()
        log_event(_log, "service.stopped")

    def __enter__(self) -> "ServiceApp":
        self.startup()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: ServiceRequest) -> ServiceResponse:
        """Route one request; every error is mapped to a status."""
        route, response = self._dispatch(request)
        self._requests.inc(route=route, status=str(response.status))
        return response

    def _dispatch(self, request: ServiceRequest) -> tuple[str, ServiceResponse]:
        parts = tuple(p for p in request.path.split("/") if p)
        try:
            match parts:
                case ("healthz",):
                    return "healthz", self._healthz(request)
                case ("metrics",):
                    return "metrics", self._metrics(request)
                case ("v1", *_):
                    outcome = self.auth.check_headers(request.headers)
                    if not outcome.ok:
                        return "v1", self._refuse(outcome)
                    return self._dispatch_v1(request, parts[1:])
                case _:
                    return "unknown", _error(404, "not-found", f"no route for {request.path!r}")
        except InvalidSpecError as exc:
            issues = [{"path": path, "message": msg} for path, msg in exc.issues]
            return "v1", _error(
                422, "invalid-spec",
                f"the experiment spec has {len(issues)} problem(s)",
                issues=issues,
            )
        except (JobNotFoundError, ArtifactNotFoundError) as exc:
            return "v1", _error(404, "not-found", str(exc))
        except InvalidParameterError as exc:
            return "v1", _error(400, "bad-request", str(exc))
        except ReproError as exc:
            log_event(_log, "request.error", path=request.path, error=str(exc))
            return "v1", _error(500, "internal-error", f"{type(exc).__name__}: {exc}")

    def _dispatch_v1(
        self, request: ServiceRequest, parts: tuple[str, ...]
    ) -> tuple[str, ServiceResponse]:
        # HEAD is a GET whose body the carrier drops.
        method = "GET" if request.method == "HEAD" else request.method
        match parts:
            case ("jobs",):
                if method == "POST":
                    return "jobs.submit", self._submit_job(request)
                if method == "GET":
                    return "jobs.list", self._list_jobs(request)
                return "jobs", _method_not_allowed(("GET", "POST"))
            case ("jobs", job_id):
                if method != "GET":
                    return "jobs.get", _method_not_allowed(("GET",))
                return "jobs.get", ServiceResponse.json(self.store.get(job_id).snapshot())
            case ("jobs", job_id, "events"):
                if method != "GET":
                    return "jobs.events", _method_not_allowed(("GET",))
                return "jobs.events", self._job_events(request, job_id)
            case ("jobs", job_id, "artifacts"):
                if method != "GET":
                    return "jobs.artifacts", _method_not_allowed(("GET",))
                return "jobs.artifacts", self._list_artifacts(job_id)
            case ("jobs", job_id, "artifacts", name):
                if method != "GET":
                    return "jobs.artifact", _method_not_allowed(("GET",))
                return "jobs.artifact", self._get_artifact(job_id, name)
            case ("backends",):
                return "backends", ServiceResponse.json(
                    {"backends": list(available_backends())}
                )
            case ("configs",):
                return "configs", self._configs()
            case ("stats",):
                return "stats", self._stats()
            case _:
                return "v1", _error(
                    404, "not-found", f"no route for /v1/{'/'.join(parts)}"
                )

    # ------------------------------------------------------------------
    # Route handlers
    # ------------------------------------------------------------------
    def _healthz(self, request: ServiceRequest) -> ServiceResponse:
        return ServiceResponse.json(
            {
                "status": "ok",
                "jobs": self.store.counts(),
                "auth": self.auth.enabled,
            }
        )

    def _metrics(self, request: ServiceRequest) -> ServiceResponse:
        return ServiceResponse.text(
            self.registry.render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _refuse(self, outcome: AuthOutcome) -> ServiceResponse:
        self._auth_refused.inc(reason=outcome.value)
        detail = (
            "missing bearer token"
            if outcome is AuthOutcome.MISSING
            else "invalid bearer token"
        )
        return _error(
            401, "unauthorized", detail,
            headers=(("WWW-Authenticate", 'Bearer realm="repro-service"'),),
        )

    def _submit_job(self, request: ServiceRequest) -> ServiceResponse:
        spec = parse_experiment_spec(
            request.json(), max_points=self.config.max_points
        )
        with self._admission:
            if self.queue.full:
                return _error(
                    503, "queue-full", "too many jobs are queued or running; retry later",
                    headers=(("Retry-After", "1"),),
                )
            job = self.store.create(spec)
            self.queue.submit(job)
        return ServiceResponse.json(
            job.snapshot(),
            status=202,
            headers=(("Location", f"/v1/jobs/{job.id}"),),
        )

    def _list_jobs(self, request: ServiceRequest) -> ServiceResponse:
        return ServiceResponse.json(
            {"jobs": [job.snapshot() for job in self.store.list()]}
        )

    def _job_events(self, request: ServiceRequest, job_id: str) -> ServiceResponse:
        job = self.store.get(job_id)
        after = _after_seq(request)
        if request.query.get("stream", "true").lower() in ("false", "0", "no"):
            payload = [e.as_payload() for e in job.events_since(after)]
            return ServiceResponse.json({"id": job.id, "events": payload})
        return ServiceResponse(
            status=200,
            headers=(
                ("Content-Type", "text/event-stream"),
                ("Cache-Control", "no-cache"),
                ("X-Accel-Buffering", "no"),
            ),
            body=self._sse_stream(job, after),
        )

    def _sse_stream(self, job: Job, after: int) -> Iterator[bytes]:
        """Frame the job's event log as Server-Sent Events.

        Sequence numbers become SSE ids, so ``Last-Event-ID``
        reconnects replay exactly the missed suffix.  The stream closes
        once the job is terminal and fully drained; while the job runs,
        silence is padded with comment keepalives.
        """
        last = after
        yield b": repro-service event stream\n\n"
        while True:
            events = job.wait_events(last, timeout=self.config.keepalive_seconds)
            for event in events:
                data = json.dumps(event.as_payload(), separators=(",", ":"))
                yield (
                    f"id: {event.seq}\nevent: {event.kind}\ndata: {data}\n\n"
                ).encode()
                last = event.seq
            if not events:
                if job.state.terminal:
                    return
                yield b": keepalive\n\n"

    def _list_artifacts(self, job_id: str) -> ServiceResponse:
        self.store.get(job_id)  # 404 for unknown jobs, even with artifacts absent
        rows = [
            {"name": a.name, "size": a.size, "content_type": a.content_type}
            for a in self.artifacts.list(job_id)
        ]
        return ServiceResponse.json({"id": job_id, "artifacts": rows})

    def _get_artifact(self, job_id: str, name: str) -> ServiceResponse:
        self.store.get(job_id)
        data = self.artifacts.get(job_id, name)
        info = self.artifacts.info(job_id, name)
        return ServiceResponse(
            status=200,
            headers=(
                ("Content-Type", info.content_type),
                ("Content-Disposition", f'attachment; filename="{name}"'),
            ),
            body=data,
        )

    def _configs(self) -> ServiceResponse:
        rows = []
        for name in configuration_names():
            cfg = get_configuration(name)
            rows.append({"name": name, "speeds": list(cfg.speeds)})
        return ServiceResponse.json({"configs": rows})

    def _stats(self) -> ServiceResponse:
        hits, misses = self.cache.stats()
        payload: dict[str, Any] = {
            "jobs": self.store.counts(),
            "cache": {
                "size": len(self.cache),
                "hits": hits,
                "misses": misses,
                "by_backend": {
                    backend: {"hits": h, "misses": m}
                    for backend, (h, m) in self.cache.stats_by_backend().items()
                },
            },
        }
        payload["pool"] = self._pool_stats()
        return ServiceResponse.json(payload)

    def _pool_stats(self) -> dict[str, Any] | None:
        status = _default_pool_status()
        if status is None:
            return None
        return {
            "started": status.started,
            "healthy": status.healthy,
            "max_workers": status.max_workers,
            "workers": [
                {
                    "id": w.worker_id,
                    "pid": w.pid,
                    "alive": w.alive,
                    "busy": w.busy,
                    "tasks_done": w.tasks_done,
                }
                for w in status.workers
            ],
            "tasks_completed": status.tasks_completed,
            "worker_crashes": status.worker_crashes,
            "workers_recycled": status.workers_recycled,
            "shard_retries": status.shard_retries,
            "inline_fallbacks": status.inline_fallbacks,
        }

    # ------------------------------------------------------------------
    # Scrape-time collectors
    # ------------------------------------------------------------------
    def _collect_cache_metrics(
        self,
    ) -> Iterator[tuple[str, str, list[Sample]]]:
        by_backend = self.cache.stats_by_backend()
        hits = [
            Sample("repro_service_cache_hits_total", (("backend", b),), float(h))
            for b, (h, _) in by_backend.items()
        ]
        misses = [
            Sample("repro_service_cache_misses_total", (("backend", b),), float(m))
            for b, (_, m) in by_backend.items()
        ]
        yield "repro_service_cache_hits_total", "counter", hits
        yield "repro_service_cache_misses_total", "counter", misses
        yield (
            "repro_service_cache_entries",
            "gauge",
            [Sample("repro_service_cache_entries", (), float(len(self.cache)))],
        )

    def _collect_job_metrics(self) -> Iterator[tuple[str, str, list[Sample]]]:
        yield (
            "repro_service_jobs",
            "gauge",
            [
                Sample("repro_service_jobs", (("state", state),), float(count))
                for state, count in self.store.counts().items()
            ],
        )

    def _collect_pool_metrics(self) -> Iterator[tuple[str, str, list[Sample]]]:
        status = _default_pool_status()
        if status is None:
            return
        counters = {
            "repro_service_pool_tasks_completed_total": status.tasks_completed,
            "repro_service_pool_worker_crashes_total": status.worker_crashes,
            "repro_service_pool_workers_recycled_total": status.workers_recycled,
            "repro_service_pool_shard_retries_total": status.shard_retries,
            "repro_service_pool_inline_fallbacks_total": status.inline_fallbacks,
        }
        for name, value in counters.items():
            yield name, "counter", [Sample(name, (), float(value))]
        yield (
            "repro_service_pool_workers_alive",
            "gauge",
            [
                Sample(
                    "repro_service_pool_workers_alive",
                    (),
                    float(sum(1 for w in status.workers if w.alive)),
                )
            ],
        )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _default_pool_status() -> Any:
    """The default warm pool's status, or ``None`` when no pool exists
    (inline transports never create one)."""
    from ..exec import warm

    pool = warm._default_pool
    return None if pool is None else pool.status()


def _after_seq(request: ServiceRequest) -> int:
    """The replay cursor: ``Last-Event-ID`` header or ``after`` query."""
    raw = request.headers.get("last-event-id", request.query.get("after", "0"))
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"invalid event cursor {raw!r}: expected an integer sequence number"
        ) from None
    if value < 0:
        raise InvalidParameterError("event cursor must be >= 0")
    return value


def _error(
    status: int,
    code: str,
    detail: str,
    *,
    headers: tuple[tuple[str, str], ...] = (),
    **extra: Any,
) -> ServiceResponse:
    return ServiceResponse.json(
        {"error": code, "detail": detail, **extra}, status=status, headers=headers
    )


def _method_not_allowed(allowed: tuple[str, ...]) -> ServiceResponse:
    return _error(
        405, "method-not-allowed",
        f"allowed methods: {', '.join(allowed)}",
        headers=(("Allow", ", ".join(allowed)),),
    )
