"""The one bounded cache primitive: an access-order LRU.

Every cache in the package that evicts — the engine's settled maps,
customisations and pair joins, the estimator memos, the traffic
model's per-hierarchy arrays, the server response caches and the lint
engine's parse cache — sits on :class:`LRU`.  Eviction policy, cost
accounting and eviction counting therefore live in one place.

The LRU is bounded by the *total cost* of its entries.  By default every
entry costs 1, so ``capacity`` is an entry count; a ``cost`` function
makes it a weight bound instead (the engine weighs a settled map by the
number of nodes it holds).  The entry just admitted is never evicted,
even when it alone exceeds the capacity: the caller is about to use it.

Values must not be ``None``: :meth:`LRU.get` returns ``None`` for a
miss.  The class is **unsynchronised**.  Owners that are shared between threads
guard it with their own lock, as they guard their counters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRU(Generic[K, V]):
    """Access-order LRU bounded by total entry cost."""

    __slots__ = ("capacity", "evictions", "_entries", "_cost", "_total")

    def __init__(self, capacity: int, cost: Callable[[V], int] | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Entries removed to make room, over the LRU's lifetime.
        #: ``pop``, ``drop_where`` and ``clear`` are not evictions.
        self.evictions = 0
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._cost = cost
        #: Total cost held; only maintained when ``cost`` is given
        #: (otherwise the total is ``len(self._entries)``).
        self._total = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    @property
    def total_cost(self) -> int:
        """Sum of the costs of the held entries."""
        return len(self._entries) if self._cost is None else self._total

    def get(self, key: K) -> V | None:
        """The value under ``key`` (now the most recent entry), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> int:
        """Store ``value`` as the most recent entry and evict least
        recently used entries until the total cost fits the capacity.

        Returns how many entries this call evicted.
        """
        entries = self._entries
        cost = self._cost
        if cost is None:
            # One entry in, so at most one out: capacity >= 1 keeps the
            # admitted entry, now last, clear of the eviction.
            entries[key] = value
            entries.move_to_end(key)
            if len(entries) <= self.capacity:
                return 0
            entries.popitem(last=False)
            self.evictions += 1
            return 1
        old = entries.get(key)
        if old is not None:
            self._total -= cost(old)
        self._total += cost(value)
        entries[key] = value
        entries.move_to_end(key)
        evicted = 0
        while self._total > self.capacity and len(entries) > 1:
            _, dropped = entries.popitem(last=False)
            self._total -= cost(dropped)
            evicted += 1
        self.evictions += evicted
        return evicted

    def pop(self, key: K) -> V | None:
        """Remove and return the value under ``key`` (None if absent)."""
        value = self._entries.pop(key, None)
        if value is not None and self._cost is not None:
            self._total -= self._cost(value)
        return value

    def drop_where(self, predicate: Callable[[K, V], bool]) -> int:
        """Remove every entry for which ``predicate(key, value)`` holds;
        returns how many were removed."""
        doomed = [key for key, value in self._entries.items() if predicate(key, value)]
        for key in doomed:
            self.pop(key)
        return len(doomed)

    def clear(self) -> None:
        """Remove every entry (the eviction count is kept)."""
        self._entries.clear()
        self._total = 0


__all__ = ["LRU"]
