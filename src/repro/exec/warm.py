"""The persistent warm-worker pool: the one multi-process transport.

:class:`WarmWorkerPool` keeps a fleet of worker processes alive across
plans and streams shards to whichever worker is free.  It serves every
multi-process plan: ``transport="warm"`` shares the process-wide
:func:`get_default_pool`, a pool instance passed as ``transport=``
lives as long as its owner keeps it, and ``processes=N`` gets a fresh
``WarmWorkerPool(max_workers=N)`` that
:meth:`~repro.api.experiment.ExecutionPlan.execute` shuts down before
it returns.

* **acquire/release** — workers are leased per shard
  (:meth:`WarmWorkerPool.acquire` / :meth:`WarmWorkerPool.release`)
  and returned to the idle set the moment their result lands, so a
  slow shard never idles the rest of the fleet;
* **one wire per worker** — each worker takes tasks and answers on
  its own pipe, and the parent blocks in
  :func:`multiprocessing.connection.wait` over those pipes plus every
  ``Process.sentinel``.  A reply and a death are both *events*: a
  SIGKILLed worker is noticed the moment the OS reports it, with no
  liveness poll, and it cannot wedge any other worker's replies;
* **recycling** — a worker that has solved :data:`MAX_TASKS_PER_WORKER`
  shards is retired and replaced, bounding any slow leak a backend
  might carry;
* **bounded retry** — a shard whose worker crashed is re-queued onto a
  healthy worker up to :data:`MAX_RETRIES` times before it is reported
  lost (:class:`~repro.exceptions.WorkerCrashError`);
* **graceful degradation** — when workers cannot be (re)started at
  all, the remaining shards solve inline in the parent process; the
  plan still completes, just without parallelism.

``close()`` only releases per-plan resources — workers stay warm until
:meth:`WarmWorkerPool.shutdown` (the default pool is shut down atexit).

Registry caveat: workers inherit the backend registry at fork, so
custom backends registered at runtime are visible to them under the
``fork`` start method (the Linux default).  Under ``spawn`` /
``forkserver`` — or after a worker is recycled under ``spawn`` —
custom backends must be registered at import time of your module (see
docs/execution.md).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any

# Loaded here, in the parent, so every worker forked from it (initial
# or recycled) inherits the scenario codec and, through ``.base``, the
# solver backends: no shard pays an import.
from ..api.scenario import Scenario
from ..exceptions import InvalidParameterError, WorkerCrashError
from .base import Shard, ShardOutcome, Transport, solve_shard_inline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = [
    "WarmWorkerPool",
    "PoolStatus",
    "WorkerStatus",
    "get_default_pool",
    "default_pool_or_none",
    "shutdown_default_pool",
    "warm_default_pool",
    "default_pool_lifespan",
]

#: Tasks a worker solves before it is retired and replaced.
MAX_TASKS_PER_WORKER = 256

#: Crash-retries per shard before it is reported lost.
MAX_RETRIES = 2


def _default_worker_count() -> int:
    """Default fleet size: the CPU count, capped (a solver pool past 8
    workers is usually memory-bound, not CPU-bound)."""
    return max(1, min(8, os.cpu_count() or 1))


def _summary(exc: BaseException) -> RuntimeError:
    """A plain, always-picklable stand-in for ``exc``."""
    return RuntimeError(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn: "Connection") -> None:
    """Worker loop: solve one task at a time until ``None`` (stop).

    Every task failure is caught and reported, so a worker only exits
    by ``stop``, recycle, or an actual crash (which the parent sees on
    the process sentinel).  A reply that cannot be pickled is replaced
    by a summary error — ``send`` pickles before it writes, so nothing
    partial ever reaches the pipe.
    """
    from ..api.backends import get_backend

    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        epoch, shard_id, scenarios, backend = message
        try:
            reply = (epoch, shard_id, "done", get_backend(backend).solve_batch(scenarios))
        except Exception as exc:  # noqa: BLE001 - report, never die
            reply = (epoch, shard_id, "error", exc)
        try:
            conn.send(reply)
        except OSError:
            return  # the parent stopped listening
        except Exception as exc:  # noqa: BLE001 - unpicklable reply
            cause = reply[3] if reply[2] == "error" else exc
            conn.send((epoch, shard_id, "error", _summary(cause)))


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Parent-side handle of one worker process and its end of the pipe."""

    worker_id: int
    process: "BaseProcess"
    conn: "Connection"
    tasks_done: int = 0
    busy: "tuple[int, int] | None" = None  # (epoch, shard_id) in flight

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def reap(self, timeout: float = 1.0) -> None:
        """Join the (exited or stopping) process, terminating it after
        ``timeout`` seconds, and close its pipe."""
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.conn.close()


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's row of a :class:`PoolStatus`."""

    worker_id: int
    pid: int | None
    alive: bool
    busy: bool
    tasks_done: int


@dataclass(frozen=True)
class PoolStatus:
    """Snapshot of a :class:`WarmWorkerPool` for telemetry and the
    ``repro pool status`` CLI."""

    started: bool
    healthy: bool
    max_workers: int
    workers: tuple[WorkerStatus, ...] = ()
    tasks_completed: int = 0
    worker_crashes: int = 0
    workers_recycled: int = 0
    shard_retries: int = 0
    inline_fallbacks: int = 0

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        if not self.started:
            return (
                f"warm pool: not started (max_workers={self.max_workers}); "
                f"workers spawn lazily on the first plan"
            )
        health = "healthy" if self.healthy else "UNHEALTHY (inline fallback)"
        lines = [
            f"warm pool: {len(self.workers)} worker(s), "
            f"max_workers={self.max_workers}, {health}",
            f"  tasks completed {self.tasks_completed}, "
            f"crashes {self.worker_crashes}, "
            f"recycled {self.workers_recycled}, "
            f"retries {self.shard_retries}, "
            f"inline fallbacks {self.inline_fallbacks}",
        ]
        for ws in self.workers:
            state = "busy" if ws.busy else "idle"
            live = "alive" if ws.alive else "dead"
            lines.append(
                f"  worker {ws.worker_id}: pid={ws.pid} {live} {state} "
                f"tasks_done={ws.tasks_done}"
            )
        return "\n".join(lines)


class WarmWorkerPool(Transport):
    """A persistent pool of solver workers with acquire/release leases.

    Parameters
    ----------
    max_workers:
        Fleet size, ``>= 1`` (``None``: the CPU count capped at 8).
        Workers start with the platform's default ``multiprocessing``
        start method — see the registry caveat in the module docstring.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1 (or None for the default), got {max_workers}"
            )
        self.max_workers = max_workers or _default_worker_count()
        self._workers: dict[int, _Worker] = {}
        self._retiring: dict[int, _Worker] = {}
        self._idle: deque[int] = deque()
        self._next_worker_id = 0
        self._started = False
        self._unhealthy = False
        # Per-plan state
        self._epoch = 0
        self._scenarios: list["Scenario"] = []
        self._pending: deque[Shard] = deque()
        self._inflight: dict[int, Shard] = {}
        self._retries: dict[int, int] = {}
        self._ready: deque[ShardOutcome] = deque()
        # Lifetime counters (PoolStatus)
        self._tasks_completed = 0
        self._worker_crashes = 0
        self._workers_recycled = 0
        self._shard_retries = 0
        self._inline_fallbacks = 0

    @property
    def parallelism(self) -> int:
        return self.max_workers

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn workers up to ``max_workers`` (idempotent).

        A failed spawn marks the pool unhealthy — plans then degrade to
        inline execution instead of failing.
        """
        self._started = True
        while len(self._workers) < self.max_workers:
            if self._spawn_worker() is None:
                break

    def _spawn_worker(self) -> _Worker | None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-warm-worker-{worker_id}",
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            conn.close()
            self._unhealthy = True
            return None
        finally:
            # The child's end lives in the child only: once the worker
            # exits, ``recv`` reads EOF and ``send`` breaks.
            child_conn.close()
        worker = _Worker(worker_id, process, conn)
        self._workers[worker_id] = worker
        self._idle.append(worker_id)
        self._unhealthy = False
        return worker

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker and reset.

        Idle workers get a graceful stop and ``timeout`` seconds to
        exit; a worker still busy with an abandoned shard is
        terminated (nobody will read its reply).
        """
        everyone = [*self._workers.values(), *self._retiring.values()]
        for worker in everyone:
            if worker.busy is None:
                self._send(worker, None)
            else:
                worker.process.terminate()
        deadline = time.monotonic() + timeout
        for worker in everyone:
            worker.reap(timeout=max(0.0, deadline - time.monotonic()))
        self._workers.clear()
        self._retiring.clear()
        self._idle.clear()
        self._started = False

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def acquire(self, timeout: float | None = 0.0) -> _Worker | None:
        """Lease an idle, live worker; ``None`` when none frees up
        within ``timeout`` seconds (``None`` = wait indefinitely).

        Dead idle workers found on the way are replaced, and a worker
        past its task budget is recycled instead of handed out.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            while self._idle:
                worker = self._workers.get(self._idle.popleft())
                if worker is None:
                    continue
                if not worker.alive:
                    self._bury(worker)
                    continue
                if worker.tasks_done >= MAX_TASKS_PER_WORKER:
                    self._recycle_worker(worker)
                    continue
                return worker
            if not self._workers:
                return None
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return None
            self._pump(timeout=remaining)

    def release(self, worker: _Worker) -> None:
        """Return a leased worker to the idle set (or retire it when it
        has hit its task budget)."""
        worker.busy = None
        if worker.tasks_done >= MAX_TASKS_PER_WORKER:
            self._recycle_worker(worker)
        elif worker.worker_id in self._workers:
            self._idle.append(worker.worker_id)

    def _recycle_worker(self, worker: _Worker) -> None:
        """Retire a worker at its task budget and spawn a successor.
        Its exit arrives later as a sentinel event (see :meth:`_bury`)."""
        if self._workers.pop(worker.worker_id, None) is None:
            return
        self._workers_recycled += 1
        self._retiring[worker.worker_id] = worker
        self._send(worker, None)
        if self._started:
            self._spawn_worker()

    def status(self) -> PoolStatus:
        """A :class:`PoolStatus` snapshot (no side effects)."""
        return PoolStatus(
            started=self._started,
            healthy=not self._unhealthy,
            max_workers=self.max_workers,
            workers=tuple(
                WorkerStatus(
                    worker_id=w.worker_id,
                    pid=w.process.pid,
                    alive=w.alive,
                    busy=w.busy is not None,
                    tasks_done=w.tasks_done,
                )
                for w in self._workers.values()
            ),
            tasks_completed=self._tasks_completed,
            worker_crashes=self._worker_crashes,
            workers_recycled=self._workers_recycled,
            shard_retries=self._shard_retries,
            inline_fallbacks=self._inline_fallbacks,
        )

    # ------------------------------------------------------------------
    # Transport protocol
    # ------------------------------------------------------------------
    def prepare(self, scenarios: Sequence["Scenario"]) -> None:
        # A new epoch: results of any shard abandoned by a previous
        # plan's interrupted harvest are discarded on arrival.
        self._epoch += 1
        self._scenarios = list(scenarios)
        self._pending.clear()
        self._inflight.clear()
        self._retries.clear()
        self._ready.clear()
        self.start()

    def submit_shard(self, shard: Shard) -> None:
        self._pending.append(shard)
        self._dispatch()

    def as_completed(self) -> Iterator[ShardOutcome]:
        while self._ready or self._pending or self._inflight:
            if self._ready:
                yield self._ready.popleft()
                continue
            self._dispatch()
            if self._pending and not self._inflight and not self._workers:
                # Degraded: no worker could be started (or every one is
                # gone and irreplaceable) — finish the plan inline.
                shard = self._pending.popleft()
                self._inline_fallbacks += 1
                yield solve_shard_inline(
                    self._scenarios, shard, retries=self._retries.get(shard.shard_id, 0)
                )
                continue
            # Nothing more can start now: block until a reply or an exit.
            self._pump(timeout=None)

    def close(self) -> None:
        """End-of-plan cleanup; the workers stay warm.  (Use
        :meth:`shutdown` to stop the fleet.)"""
        self._scenarios = []
        self._pending.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _send(worker: _Worker, message: tuple[Any, ...] | None) -> bool:
        """Write to a worker's pipe; ``False`` if the worker is gone."""
        try:
            worker.conn.send(message)
        except OSError:
            return False
        return True

    def _dispatch(self) -> None:
        """Hand pending shards to idle workers (acquire -> send)."""
        while self._pending:
            worker = self.acquire(timeout=0.0)
            if worker is None:
                return
            shard = self._pending.popleft()
            scenarios = [self._scenarios[u] for u in shard.indices]
            if not self._send(worker, (self._epoch, shard.shard_id, scenarios, shard.backend)):
                self._pending.appendleft(shard)
                self._bury(worker)
                continue
            worker.busy = (self._epoch, shard.shard_id)
            self._inflight[shard.shard_id] = shard

    def _pump(self, timeout: float | None) -> None:
        """Block up to ``timeout`` seconds (``None``: until something
        happens) for a reply or a worker exit, then handle every event
        that is ready."""
        events: dict[Any, tuple[_Worker, bool]] = {}
        for worker in [*self._workers.values(), *self._retiring.values()]:
            events[worker.conn] = (worker, False)
            events[worker.process.sentinel] = (worker, True)
        if not events:
            return
        for handle in wait(list(events), timeout):
            worker, exited = events[handle]
            if exited:
                self._bury(worker)
            else:
                self._drain(worker)

    def _drain(self, worker: _Worker) -> None:
        """Take every reply already waiting in ``worker``'s pipe."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # the worker is gone; its sentinel reports that
            except Exception as exc:  # noqa: BLE001 - does not unpickle here
                # The pipe carries one task's reply at a time, so the
                # lease says whose reply this was.
                if worker.busy is None:
                    continue
                message = (*worker.busy, "error", _summary(exc))
            self._receive(worker, message)

    def _receive(self, worker: _Worker, message: tuple[Any, ...]) -> None:
        """File one reply: release the worker, then record the outcome
        unless it belongs to an abandoned plan's epoch."""
        epoch, shard_id, kind, body = message
        if worker.busy == (epoch, shard_id):
            worker.tasks_done += 1
            self.release(worker)
        if epoch != self._epoch:
            return  # stale: an abandoned plan's shard
        shard = self._inflight.pop(shard_id, None)
        if shard is None:
            return
        site = f"warm-{worker.worker_id}"
        retries = self._retries.get(shard_id, 0)
        if kind == "done":
            self._tasks_completed += 1
            outcome = ShardOutcome(
                shard=shard, results=tuple(body), worker=site, retries=retries
            )
        else:
            # A shard *exception* is deterministic — retrying it on
            # another worker would fail identically, so report it.
            outcome = ShardOutcome(shard=shard, error=body, worker=site, retries=retries)
        self._ready.append(outcome)

    def _bury(self, worker: _Worker) -> None:
        """A worker process ended.  A retiring worker was asked to; any
        other exit is a crash: spawn a successor and retry (or, past
        :data:`MAX_RETRIES`, fail) the shard it was solving."""
        self._drain(worker)  # a reply sent just before the exit still counts
        worker.reap()
        if self._retiring.pop(worker.worker_id, None) is not None:
            return
        if self._workers.pop(worker.worker_id, None) is None:
            return  # already buried
        self._worker_crashes += 1
        if self._started:
            self._spawn_worker()
        if worker.busy is None:
            return
        epoch, shard_id = worker.busy
        if epoch != self._epoch:
            return  # a stale shard died with its worker; nothing to do
        shard = self._inflight.pop(shard_id, None)
        if shard is None:
            return
        retries = self._retries.get(shard_id, 0) + 1
        self._retries[shard_id] = retries
        if retries <= MAX_RETRIES:
            self._shard_retries += 1
            self._pending.appendleft(shard)
        else:
            self._ready.append(
                ShardOutcome(
                    shard=shard,
                    error=WorkerCrashError(1, len(shard)),
                    worker=f"warm-{worker.worker_id}",
                    retries=retries,
                )
            )


# ----------------------------------------------------------------------
# The process-wide default pool
# ----------------------------------------------------------------------
_default_pool: WarmWorkerPool | None = None


def get_default_pool(max_workers: int | None = None) -> WarmWorkerPool:
    """The process-wide reusable pool behind ``transport="warm"``.

    Created lazily on first use (sized by ``max_workers`` then, default
    CPU-capped); later calls return the same pool regardless of
    ``max_workers`` — one warm fleet per process, shared by every plan.
    Shut down automatically atexit, or explicitly via
    :func:`shutdown_default_pool`.
    """
    global _default_pool
    if _default_pool is None:
        _default_pool = WarmWorkerPool(max_workers=max_workers)
    return _default_pool


def default_pool_or_none() -> WarmWorkerPool | None:
    """The process-wide pool if one has been created, else ``None`` —
    a peek that never creates the pool (``repro pool status`` uses it)."""
    return _default_pool


def shutdown_default_pool() -> None:
    """Stop the default pool's workers (a later ``get_default_pool``
    starts a fresh one)."""
    global _default_pool
    if _default_pool is not None:
        _default_pool.shutdown()
        _default_pool = None


def warm_default_pool(max_workers: int | None = None) -> WarmWorkerPool:
    """Eagerly start the process-wide pool.

    ``get_default_pool`` alone spawns nothing — workers appear lazily
    at the first plan's ``prepare``, which is the right behaviour for
    scripts but wrong for a long-lived server: the first request should
    not pay the fleet spawn.  This helper is the *startup* half of the
    server lifespan story: spawn the fleet now and return the pool
    ready to serve.
    """
    pool = get_default_pool(max_workers)
    pool.start()
    return pool


@contextmanager
def default_pool_lifespan(
    max_workers: int | None = None, *, drain_timeout: float = 5.0
) -> "Iterator[WarmWorkerPool]":
    """Tie the process-wide pool to an application lifespan.

    A long-lived server cannot rely on the atexit hook alone: atexit
    only runs at interpreter exit, while a server wants its fleet
    spawned *before* the first request (startup warm) and drained
    deterministically when the app stops — not when the process dies.
    ``with default_pool_lifespan(n):`` is that contract:

    * entry — :func:`warm_default_pool` spawns the fleet;
    * exit — :func:`shutdown_default_pool` stops every worker, even
      on error paths: idle workers get the graceful ``stop`` message
      and ``drain_timeout`` seconds before ``terminate``; a worker
      still busy with an abandoned shard is terminated at once.

    The atexit hook stays registered as the backstop for processes
    that never exit the lifespan cleanly (``kill -9`` excepted — the
    workers are daemons and die with the parent).
    """
    pool = warm_default_pool(max_workers)
    try:
        yield pool
    finally:
        global _default_pool
        if _default_pool is pool:
            pool.shutdown(timeout=drain_timeout)
            _default_pool = None
        else:  # pragma: no cover - pool swapped mid-lifespan
            pool.shutdown(timeout=drain_timeout)


atexit.register(shutdown_default_pool)
