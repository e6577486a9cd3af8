"""The transport protocol: how plan shards reach their solvers.

An :class:`~repro.api.experiment.ExecutionPlan` describes *what* to
solve — deduplicated scenarios grouped into backend shards.  A
:class:`Transport` decides *where*: in-process, or on the worker
processes of a :class:`~repro.exec.warm.WarmWorkerPool`.
The contract is deliberately tiny so remote fabrics (the ROADMAP's
distributed story) plug into the same seam:

* :meth:`Transport.prepare` — one call per plan, handing the transport
  the plan's unique scenarios (the warm pool starts its workers
  here);
* :meth:`Transport.submit_shard` — enqueue one :class:`Shard`;
* :meth:`Transport.as_completed` — yield a :class:`ShardOutcome` per
  submitted shard **in completion order**, never raising for a shard
  failure (outcomes carry the error instead, so one poisoned shard
  cannot discard another shard's finished work);
* :meth:`Transport.close` — release the plan-scoped resources.  A
  transport is reusable: ``prepare`` may be called again after
  ``close`` (the warm pool keeps its workers across plans and only
  releases them on :meth:`~repro.exec.warm.WarmWorkerPool.shutdown`).

``KeyboardInterrupt`` is *not* converted into an outcome — it
propagates out of ``as_completed`` so an interactive abort stays an
abort; the executor's ``finally: close()`` and its per-shard cache
writes are what make the interrupted run resumable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from ..api.backends import get_backend
from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import Result
    from ..api.scenario import Scenario

__all__ = [
    "Shard",
    "ShardOutcome",
    "Transport",
    "InlineTransport",
    "resolve_transport",
]


@dataclass(frozen=True)
class Shard:
    """One unit of transportable work: a backend and the unique-scenario
    indices it solves as a single batch."""

    shard_id: int
    backend: str
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ShardOutcome:
    """What came back for one submitted shard.

    Exactly one of ``results``/``error`` is set.  ``worker`` names the
    execution site (``"inline"``, a pool, or a worker id) and
    ``retries`` counts crash-retries the shard survived before this
    outcome — diagnostics for the crash-recovery tests and the CLI.
    """

    shard: Shard
    results: tuple["Result", ...] | None = None
    error: BaseException | None = field(default=None, repr=False)
    worker: str | None = None
    retries: int = 0

    @property
    def ok(self) -> bool:
        """True when the shard solved (``results`` is set)."""
        return self.error is None


class Transport(abc.ABC):
    """Where plan shards execute; see the module docstring for the
    ``prepare``/``submit_shard``/``as_completed``/``close`` contract."""

    @property
    def parallelism(self) -> int:
        """How many shards this transport can run concurrently — the
        plan compiler uses it to size batched-backend sharding."""
        return 1

    @abc.abstractmethod
    def prepare(self, scenarios: Sequence["Scenario"]) -> None:
        """Begin a plan: receive the unique scenarios shards index into."""

    @abc.abstractmethod
    def submit_shard(self, shard: Shard) -> None:
        """Enqueue one shard for execution."""

    @abc.abstractmethod
    def as_completed(self) -> Iterator[ShardOutcome]:
        """Yield one outcome per submitted shard, completion order."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the plan-scoped resources (idempotent)."""


class InlineTransport(Transport):
    """The single-process loop: shards solve sequentially, in
    submission order, on the calling thread.

    This is the degenerate — and default — transport, and also the
    degradation target of an unhealthy :class:`WarmWorkerPool`.  Shard
    exceptions become :class:`ShardOutcome` errors like everywhere
    else, so even the sequential path finishes (and caches) every
    healthy shard before the executor re-raises.
    """

    def __init__(self) -> None:
        self._scenarios: list["Scenario"] = []
        self._pending: list[Shard] = []

    def prepare(self, scenarios: Sequence["Scenario"]) -> None:
        self._scenarios = list(scenarios)
        self._pending = []

    def submit_shard(self, shard: Shard) -> None:
        self._pending.append(shard)

    def as_completed(self) -> Iterator[ShardOutcome]:
        while self._pending:
            shard = self._pending.pop(0)
            yield solve_shard_inline(self._scenarios, shard)

    def close(self) -> None:
        self._pending = []


def solve_shard_inline(
    scenarios: Sequence["Scenario"], shard: Shard, *, retries: int = 0
) -> ShardOutcome:
    """Solve one shard on the calling thread, mapping shard exceptions
    to error outcomes (``KeyboardInterrupt``/``SystemExit`` propagate).
    Shared by :class:`InlineTransport` and the warm pool's degradation
    path."""
    try:
        results = get_backend(shard.backend).solve_batch(
            [scenarios[u] for u in shard.indices]
        )
    except Exception as exc:
        return ShardOutcome(shard=shard, error=exc, worker="inline", retries=retries)
    return ShardOutcome(
        shard=shard, results=tuple(results), worker="inline", retries=retries
    )


def resolve_transport(
    transport: "Transport | str | None", processes: int | None
) -> Transport:
    """Map the ``transport=`` argument convention to a transport.

    ``None`` keeps the ``processes=`` semantics: a fresh
    :class:`~repro.exec.warm.WarmWorkerPool` of ``processes`` workers
    when ``processes > 1`` (its caller owns it and shuts it down, as
    :meth:`~repro.api.experiment.ExecutionPlan.execute` does), else
    inline.  Strings select a kind — ``"inline"`` or ``"warm"`` (the
    process-wide reusable :func:`~repro.exec.warm.get_default_pool`,
    sized by ``processes`` when it is first created).  A
    :class:`Transport` instance is used as-is (the executor still calls
    ``prepare``/``close`` around the plan).
    """
    if isinstance(transport, Transport):
        return transport
    if transport is None and processes is not None and processes > 1:
        from .warm import WarmWorkerPool

        return WarmWorkerPool(max_workers=processes)
    if transport is None or transport == "inline":
        return InlineTransport()
    if transport == "warm":
        from .warm import get_default_pool

        return get_default_pool(max_workers=processes)
    raise InvalidParameterError(
        f"unknown transport {transport!r}; expected a Transport instance, "
        f"'inline', 'warm', or None"
    )
