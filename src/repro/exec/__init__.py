"""Execution transports: where plan shards run.

The :class:`Transport` seam decouples *what* an
:class:`~repro.api.experiment.ExecutionPlan` solves from *where* the
shards execute — in-process (:class:`InlineTransport`) or on the worker
processes of a :class:`WarmWorkerPool`.  See docs/execution.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach, exports

_EXPORTS = exports({
    ".base": (
        "Shard", "ShardOutcome", "Transport", "InlineTransport", "resolve_transport",
        "solve_shard_inline",
    ),
    ".warm": (
        "WarmWorkerPool", "PoolStatus", "WorkerStatus", "get_default_pool", "default_pool_or_none",
        "shutdown_default_pool", "warm_default_pool", "default_pool_lifespan",
    ),
})

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .base import (
        InlineTransport, Shard, ShardOutcome, Transport, resolve_transport, solve_shard_inline,
    )
    from .warm import (
        PoolStatus, WarmWorkerPool, WorkerStatus, default_pool_lifespan, default_pool_or_none,
        get_default_pool, shutdown_default_pool, warm_default_pool,
    )
