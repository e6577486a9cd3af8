"""Execution transports: where plan shards run.

The :class:`Transport` seam decouples *what* an
:class:`~repro.api.experiment.ExecutionPlan` solves from *where* the
shards execute — in-process (:class:`InlineTransport`) or on the worker
processes of a :class:`WarmWorkerPool`.  See docs/execution.md.
"""

from __future__ import annotations

from .base import (
    InlineTransport,
    Shard,
    ShardOutcome,
    Transport,
    resolve_transport,
    solve_shard_inline,
)
from .warm import (
    PoolStatus,
    WarmWorkerPool,
    WorkerStatus,
    default_pool_lifespan,
    default_pool_or_none,
    get_default_pool,
    shutdown_default_pool,
    warm_default_pool,
)

__all__ = [
    "Shard",
    "ShardOutcome",
    "Transport",
    "InlineTransport",
    "WarmWorkerPool",
    "PoolStatus",
    "WorkerStatus",
    "get_default_pool",
    "default_pool_or_none",
    "shutdown_default_pool",
    "warm_default_pool",
    "default_pool_lifespan",
    "resolve_transport",
    "solve_shard_inline",
]
