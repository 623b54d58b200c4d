"""Bounded hardware-table helpers shared by the prefetchers and the MMU.

Hardware prefetcher state lives in small, fixed-capacity SRAM tables.
``BoundedTable`` models one: a dict with LRU eviction at a capacity limit,
so Python's unbounded dicts cannot quietly give a prefetcher infinite
metadata (which would inflate its coverage relative to the paper).  The
MMU's fully associative page-structure cache
(``repro.vm.walker.MMUCache``) keeps its entries in one too.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, Optional, TypeVar

V = TypeVar("V")


class BoundedTable(Generic[V]):
    """Fixed-capacity associative table with LRU replacement.

    The dict's insertion order is the recency order: a touching ``get``
    and every ``put`` re-insert their key at the end, and the victim is
    the first key.  Values are never None (``get`` returns None for a
    miss).
    """

    __slots__ = ("capacity", "_data", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("table capacity must be >= 1")
        self.capacity = capacity
        self._data: Dict[Hashable, V] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def get(self, key: Hashable, touch: bool = True) -> Optional[V]:
        """Return the value for *key* (refreshing recency), or None."""
        if not touch:
            return self._data.get(key)
        value = self._data.pop(key, None)
        if value is not None:
            self._data[key] = value
        return value

    def put(self, key: Hashable, value: V) -> Optional[Hashable]:
        """Insert/update; return the evicted key when capacity overflowed."""
        data = self._data
        evicted = None
        if key in data:
            del data[key]
        elif len(data) >= self.capacity:
            evicted = next(iter(data))
            del data[evicted]
            self.evictions += 1
        data[key] = value
        return evicted

    def pop(self, key: Hashable) -> Optional[V]:
        return self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()


def saturate(value: int, lo: int, hi: int) -> int:
    """Clamp *value* to the closed range [lo, hi] (saturating counter)."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value
