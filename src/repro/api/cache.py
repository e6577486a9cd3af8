"""Per-scenario memoisation for the unified solve API.

Every scenario is a small frozen dataclass, hence hashable; a solve is
fully determined by ``(scenario identity, backend name)``.  Scenarios
expose that identity via ``cache_key()`` — the solve-relevant fields
only, so presentation-only differences (the free-form ``label``, the
``backend`` *preference*, a catalog name vs its resolved
configuration) share one entry; any other hashable key object is used
as-is.  The cache keeps the :class:`~repro.api.result.Result` of each
miss and replays it on subsequent identical solves with ``cache_hit``
provenance, which makes repeated sweeps (Pareto frontiers, figure
regeneration, interactive sessions) effectively free after the first
pass.

A process-wide :data:`DEFAULT_CACHE` backs ``Scenario.solve`` /
``Experiment.solve`` unless the caller supplies a private
:class:`SolveCache` (or disables caching with ``cache=False``).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import TYPE_CHECKING
from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .result import Result

__all__ = ["SolveCache", "DEFAULT_CACHE", "clear_default_cache"]


def _key(scenario: Hashable, backend: str) -> tuple[Hashable, str]:
    """The cache key of one solve.

    Objects implementing the ``cache_key()`` protocol (``Scenario``)
    are keyed by that canonical tuple; anything else hashable is keyed
    directly, so tests and custom callers can use sentinel keys.
    """
    keyfn = getattr(scenario, "cache_key", None)
    if callable(keyfn):
        return (keyfn(), backend)
    return (scenario, backend)


class SolveCache:
    """A bounded LRU memo of solve results keyed by (scenario, backend).

    Parameters
    ----------
    maxsize:
        Maximum number of retained results; the least-recently-*used*
        entry is evicted first (a hit refreshes an entry's recency, so
        the hot scenarios of a repeated sweep survive a long tail of
        one-off solves).  ``None`` means unbounded.

    Examples
    --------
    >>> cache = SolveCache(maxsize=2)
    >>> cache.stats()
    (0, 0)
    """

    def __init__(self, maxsize: int | None = 8192):
        if maxsize is not None and maxsize <= 0:
            raise InvalidParameterError("maxsize must be positive or None")
        self._maxsize = maxsize
        self._entries: OrderedDict[Hashable, "Result"] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._by_backend: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int | None:
        """The eviction bound (``None`` = unbounded)."""
        return self._maxsize

    @property
    def hits(self) -> int:
        """Number of successful lookups so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of failed lookups so far."""
        return self._misses

    def stats(self) -> tuple[int, int]:
        """``(hits, misses)`` counters as a tuple."""
        return (self._hits, self._misses)

    def stats_by_backend(self) -> dict[str, tuple[int, int]]:
        """Per-backend ``{backend: (hits, misses)}`` breakdown.

        Backends appear in first-lookup order; the totals across all
        backends equal :meth:`stats`.  A sweep rerun shows its hits
        under the backend that solved it, not merged into a global
        counter.  Callers pass canonical names
        (:meth:`~repro.api.scenario.Scenario.resolve_backend_name`), so
        an alias such as ``grid`` is counted under ``firstorder``.
        """
        return {name: (h, m) for name, (h, m) in self._by_backend.items()}

    # ------------------------------------------------------------------
    def get(self, scenario: Hashable, backend: str) -> "Result | None":
        """Look up a prior result; counts a hit or a miss.

        A hit moves the entry to the most-recently-used position, so
        hot entries outlive the FIFO horizon of a long one-off tail.
        """
        key = _key(scenario, backend)
        result = self._entries.get(key)
        counters = self._by_backend.setdefault(backend, [0, 0])
        if result is None:
            self._misses += 1
            counters[1] += 1
        else:
            self._hits += 1
            counters[0] += 1
            self._entries.move_to_end(key)
        return result

    def put(self, scenario: Hashable, backend: str, result: "Result") -> None:
        """Store a result, evicting the least-recently-used entry when
        full.  Re-storing an existing key refreshes its recency."""
        key = _key(scenario, backend)
        if key not in self._entries and self._maxsize is not None:
            while len(self._entries) >= self._maxsize:
                self._entries.popitem(last=False)
        self._entries[key] = result
        self._entries.move_to_end(key)

    def invalidate_backend(self, backend: str) -> int:
        """Drop every entry produced under ``backend``; returns the
        count.  Used when a backend is re-registered under the same
        name so the replacement is actually consulted.  An alias
        resolves to the canonical name its entries are keyed by."""
        from .backends import available_backends, get_backend

        if backend in available_backends():
            backend = get_backend(backend).name
        keys = [key for key in self._entries if key[1] == backend]
        for key in keys:
            del self._entries[key]
        return len(keys)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._by_backend.clear()


#: Process-wide cache used by ``Scenario.solve`` / ``Experiment.solve`` when
#: the caller does not pass a private cache.
DEFAULT_CACHE = SolveCache()


def clear_default_cache() -> None:
    """Reset :data:`DEFAULT_CACHE` (mainly for tests and benchmarks)."""
    DEFAULT_CACHE.clear()
