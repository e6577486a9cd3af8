"""Per-call process-pool transport: today's ``processes=`` semantics.

One fresh ``ProcessPoolExecutor`` per plan; each task pickles its
shard's scenarios.  Futures are harvested **as completed**:
a long first shard no longer delays the caching of later shards, and a
crashed worker — which breaks the whole per-call pool — surfaces as
error outcomes for the in-flight shards while every already-completed
future still delivers its results.

The per-plan fork/spawn cost this transport pays on every ``execute``
is exactly what the persistent :class:`~repro.exec.warm.WarmWorkerPool`
amortises; the ``dispatch_overhead`` bench suite measures the gap.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from ..api.study import _solve_shard
from .base import Shard, ShardOutcome, Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.result import Result
    from ..api.scenario import Scenario

__all__ = ["PooledTransport"]


class PooledTransport(Transport):
    """A fresh ``ProcessPoolExecutor`` per plan (cold-pool dispatch).

    Parameters
    ----------
    max_workers:
        Worker processes of the per-plan pool; ``None`` uses the
        executor's own default (CPU count).
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        self._scenarios: list["Scenario"] = []
        self._futures: dict[Future["list[Result]"], Shard] = {}

    @property
    def parallelism(self) -> int:
        import os

        return self.max_workers or os.cpu_count() or 1

    # ------------------------------------------------------------------
    def prepare(self, scenarios: Sequence["Scenario"]) -> None:
        self._scenarios = list(scenarios)
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        self._futures = {}

    def submit_shard(self, shard: Shard) -> None:
        assert self._pool is not None, "prepare() must run before submit_shard()"
        future = self._pool.submit(
            _solve_shard,
            [self._scenarios[u] for u in shard.indices],
            shard.backend,
        )
        self._futures[future] = shard

    def as_completed(self) -> Iterator[ShardOutcome]:
        pending = dict(self._futures)
        self._futures = {}
        for future in as_completed(pending):
            shard = pending[future]
            try:
                results = future.result()
            except Exception as exc:
                # A worker crash breaks the whole per-call pool: the
                # crashed and every still-pending future raise
                # BrokenProcessPool here.  Shard exceptions (a raising
                # backend) arrive the same way.  Either way the
                # completed futures above already delivered.
                yield ShardOutcome(shard=shard, error=exc, worker="pooled")
            else:
                yield ShardOutcome(
                    shard=shard, results=tuple(results), worker="pooled"
                )

    def close(self) -> None:
        if self._pool is not None:
            # cancel_futures: an abandoned harvest (KeyboardInterrupt)
            # must not block shutdown behind shards nobody will read.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._futures = {}
        self._scenarios = []
