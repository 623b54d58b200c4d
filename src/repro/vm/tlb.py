"""Translation Lookaside Buffers.

Set-associative TLBs holding translations at their native granularity: a
4KB entry is keyed by the 4KB virtual page number, a 2MB entry by the 2MB
virtual page number (so one 2MB entry covers 512x the reach — the
motivation for THP in Section II-B1).  A lookup probes both granularities.

The TLB is where PPM's input comes from: the page size of a block is part
of the address-translation metadata available after the (VIPT) L1 access,
and PPM copies it into the L1D MSHR entry on a miss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memory.address import (
    PAGE_1G_BITS,
    PAGE_2M_BITS,
    PAGE_4K_BITS,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.sim.config import TLBConfig


class TLB:
    """One TLB level.  Entries are (page_size, native page number) keys.

    Each set is a dict kept in LRU order, as a cache set is: a hit or a
    fill moves its key to the end, and the victim is the first key.
    """

    def __init__(self, config: TLBConfig) -> None:
        if config.entries % config.ways:
            raise ValueError(f"{config.name}: entries not divisible by ways")
        self.name = config.name
        self.latency = config.latency
        self.ways = config.ways
        self.num_sets = config.entries // config.ways
        self._sets: List[Dict[Tuple[int, int], bool]] = [
            {} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.hits_2m = 0

    def _set_index(self, page: int) -> int:
        return page % self.num_sets

    def lookup(self, vaddr: int) -> Optional[int]:
        """Return the page size of a cached translation, or None on miss."""
        key4k = (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        set4k = self._sets[self._set_index(key4k[1])]
        if set4k.pop(key4k, False):
            set4k[key4k] = True
            self.hits += 1
            return PAGE_SIZE_4K
        key2m = (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        set2m = self._sets[self._set_index(key2m[1])]
        if set2m.pop(key2m, False):
            set2m[key2m] = True
            self.hits += 1
            self.hits_2m += 1
            return PAGE_SIZE_2M
        key1g = (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)
        set1g = self._sets[self._set_index(key1g[1])]
        if set1g.pop(key1g, False):
            set1g[key1g] = True
            self.hits += 1
            return PAGE_SIZE_1G
        self.misses += 1
        return None

    def contains(self, vaddr: int) -> bool:
        """Presence probe without statistics or LRU update (for IPCP++)."""
        key4k = (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        if key4k in self._sets[self._set_index(key4k[1])]:
            return True
        key2m = (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        if key2m in self._sets[self._set_index(key2m[1])]:
            return True
        key1g = (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)
        return key1g in self._sets[self._set_index(key1g[1])]

    def fill(self, vaddr: int, page_size: int) -> None:
        """Install a translation at its native granularity (LRU victim)."""
        if page_size == PAGE_SIZE_1G:
            key = (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)
        elif page_size == PAGE_SIZE_2M:
            key = (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        else:
            key = (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        tlb_set = self._sets[self._set_index(key[1])]
        if key in tlb_set:
            del tlb_set[key]
        elif len(tlb_set) >= self.ways:
            del tlb_set[next(iter(tlb_set))]
        tlb_set[key] = True

    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.hits_2m = 0
