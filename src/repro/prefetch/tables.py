"""Bounded hardware-table helpers shared by the prefetcher models.

Hardware prefetcher state lives in small, fixed-capacity SRAM tables.
``BoundedTable`` models one: a dict with LRU eviction at a capacity limit,
so Python's unbounded dicts cannot quietly give a prefetcher infinite
metadata (which would inflate its coverage relative to the paper).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, Optional, TypeVar

V = TypeVar("V")


class BoundedTable(Generic[V]):
    """Fixed-capacity associative table with LRU replacement."""

    __slots__ = ("capacity", "_data", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("table capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, V]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def get(self, key: Hashable, touch: bool = True) -> Optional[V]:
        """Return the value for *key* (refreshing recency), or None."""
        value = self._data.get(key)
        if value is not None and touch:
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: V) -> Optional[Hashable]:
        """Insert/update; return the evicted key when capacity overflowed."""
        evicted = None
        if key not in self._data and len(self._data) >= self.capacity:
            evicted, _ = self._data.popitem(last=False)
            self.evictions += 1
        self._data[key] = value
        self._data.move_to_end(key)
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
