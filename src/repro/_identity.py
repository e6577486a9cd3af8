"""Identity by canonical tuple, memoised per instance.

Every solve-cache key, plan dedup and grid model group hashes the
schedules and error models it holds, so :class:`CanonicalIdentity`
builds each instance's tuple and hash once.  As with
``Configuration.__hash__``, the memos sit in the instance dict outside
the dataclass fields: they stay out of ``==``, ``repr``, copies and
pickles, so a string hash (randomised per process) never crosses one.
"""

from __future__ import annotations

from typing import Any

_CANONICAL_MEMO = "_canonical_memo"
_HASH_MEMO = "_hash_memo"


class CanonicalIdentity:
    """Equality and hashing through :meth:`canonical`; subclasses build
    the tuple in ``_canonical`` (each family with its own leading tag)."""

    def _canonical(self) -> tuple:
        raise NotImplementedError

    def canonical(self) -> tuple:
        """Canonical identity: what equality, hashing and the solve
        cache key on (built once per instance)."""
        memo: tuple | None = self.__dict__.get(_CANONICAL_MEMO)
        if memo is None:
            memo = self.__dict__[_CANONICAL_MEMO] = self._canonical()
        return memo

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalIdentity):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        memo: int | None = self.__dict__.get(_HASH_MEMO)
        if memo is None:
            memo = self.__dict__[_HASH_MEMO] = hash(self.canonical())
        return memo

    def __getstate__(self) -> dict[str, Any]:
        """Pickle (and copy) the fields only, never the memos."""
        state = dict(self.__dict__)
        state.pop(_CANONICAL_MEMO, None)
        state.pop(_HASH_MEMO, None)
        return state
