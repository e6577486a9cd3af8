"""Pluggable artifact storage for job result exports.

A finished job leaves its deliverables — the results CSV, the JSON
result set, analysis exports — in an :class:`ArtifactStore`, from
which ``GET /v1/jobs/{id}/artifacts/{name}`` serves them.  The
interface is the byte-oriented put/get/list contract of an object
store, so the local-directory backend shipping here can be swapped for
S3/GCS without touching the job layer; :class:`InMemoryArtifactStore`
backs tests and benchmarks that should not touch disk.

Artifact names are validated against a conservative character set and
job ids become one directory level each — a crafted name can never
traverse outside the store root.
"""

from __future__ import annotations

import abc
import re
import threading
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import InvalidParameterError

__all__ = [
    "ArtifactInfo",
    "ArtifactNotFoundError",
    "ArtifactStore",
    "LocalDirArtifactStore",
    "InMemoryArtifactStore",
    "content_type_for",
]

#: Allowed artifact/job-id shape: simple filenames, no separators, no
#: leading dot (hence no ``.``/``..`` path escapes).
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Extension -> content type of the exports the job layer writes.
_CONTENT_TYPES = {
    ".csv": "text/csv; charset=utf-8",
    ".json": "application/json",
    ".txt": "text/plain; charset=utf-8",
    ".md": "text/markdown; charset=utf-8",
}


class ArtifactNotFoundError(InvalidParameterError, KeyError):
    """No such artifact (or job) in the store — maps to HTTP 404."""

    def __init__(self, job_id: str, name: str | None = None):
        self.job_id = job_id
        self.name = name
        what = f"artifact {name!r} of job {job_id!r}" if name else f"job {job_id!r}"
        super().__init__(f"{what} not found in the artifact store")

    # KeyError.__str__ reprs the message; keep the plain rendering.
    __str__ = Exception.__str__

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return (type(self), (self.job_id, self.name))


def _validate_name(name: str, *, what: str) -> str:
    if not _NAME_RE.match(name):
        raise InvalidParameterError(
            f"invalid {what} {name!r}: expected [A-Za-z0-9._-]+ without a "
            f"leading dot"
        )
    return name


def content_type_for(name: str) -> str:
    """Content type served for artifact ``name`` (by extension)."""
    for ext, ctype in _CONTENT_TYPES.items():
        if name.endswith(ext):
            return ctype
    return "application/octet-stream"


@dataclass(frozen=True)
class ArtifactInfo:
    """One stored artifact's metadata row."""

    name: str
    size: int
    content_type: str


class ArtifactStore(abc.ABC):
    """The byte-oriented artifact contract (object-store shaped)."""

    @abc.abstractmethod
    def put(self, job_id: str, name: str, data: bytes) -> ArtifactInfo:
        """Store ``data`` under ``(job_id, name)``; overwrites (the
        idempotent-write semantics a retried job needs)."""

    @abc.abstractmethod
    def get(self, job_id: str, name: str) -> bytes:
        """The stored bytes; raises :class:`ArtifactNotFoundError`."""

    @abc.abstractmethod
    def list(self, job_id: str) -> tuple[ArtifactInfo, ...]:
        """All artifacts of one job, name order (empty when none)."""

    def discard(self, job_id: str) -> None:
        """The job store evicted ``job_id``; by default keep its files."""

    def info(self, job_id: str, name: str) -> ArtifactInfo:
        """Metadata of one artifact; raises :class:`ArtifactNotFoundError`."""
        for row in self.list(job_id):
            if row.name == name:
                return row
        raise ArtifactNotFoundError(job_id, name)


class LocalDirArtifactStore(ArtifactStore):
    """Artifacts on the local filesystem: ``<root>/<job_id>/<name>``.

    Writes go through a same-directory temp file + :func:`Path.rename`
    so a concurrently-served artifact is never read half-written.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _job_dir(self, job_id: str) -> Path:
        return self.root / _validate_name(job_id, what="job id")

    def put(self, job_id: str, name: str, data: bytes) -> ArtifactInfo:
        _validate_name(name, what="artifact name")
        job_dir = self._job_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        tmp = job_dir / f".{name}.tmp"
        tmp.write_bytes(data)
        tmp.rename(job_dir / name)
        return ArtifactInfo(name=name, size=len(data), content_type=content_type_for(name))

    def get(self, job_id: str, name: str) -> bytes:
        _validate_name(name, what="artifact name")
        path = self._job_dir(job_id) / name
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise ArtifactNotFoundError(job_id, name) from None

    def list(self, job_id: str) -> tuple[ArtifactInfo, ...]:
        job_dir = self._job_dir(job_id)
        if not job_dir.is_dir():
            return ()
        rows = [
            ArtifactInfo(
                name=path.name,
                size=path.stat().st_size,
                content_type=content_type_for(path.name),
            )
            for path in sorted(job_dir.iterdir())
            if path.is_file() and not path.name.startswith(".")
        ]
        return tuple(rows)


class InMemoryArtifactStore(ArtifactStore):
    """A dict-backed store for tests and benchmarks (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, dict[str, bytes]] = {}

    def put(self, job_id: str, name: str, data: bytes) -> ArtifactInfo:
        _validate_name(job_id, what="job id")
        _validate_name(name, what="artifact name")
        with self._lock:
            self._data.setdefault(job_id, {})[name] = bytes(data)
        return ArtifactInfo(name=name, size=len(data), content_type=content_type_for(name))

    def get(self, job_id: str, name: str) -> bytes:
        with self._lock:
            try:
                return self._data[job_id][name]
            except KeyError:
                raise ArtifactNotFoundError(job_id, name) from None

    def list(self, job_id: str) -> tuple[ArtifactInfo, ...]:
        with self._lock:
            rows = self._data.get(job_id, {})
            return tuple(
                ArtifactInfo(
                    name=name, size=len(data), content_type=content_type_for(name)
                )
                for name, data in sorted(rows.items())
            )

    def discard(self, job_id: str) -> None:
        """Drop the evicted job's bytes."""
        with self._lock:
            self._data.pop(job_id, None)
