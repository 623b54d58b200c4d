"""Set-associative cache model.

Each cache line carries, besides the tag, the metadata the paper's
mechanisms need:

- ``dirty``    : for writeback traffic accounting,
- ``prefetch`` : set when the line was filled by a prefetch and not yet
  demanded (used for coverage/accuracy metrics),
- ``issuer``   : the Set-Dueling *annotation bit* (Section IV-B2): which of
  the two competing page-size-aware prefetchers issued the prefetch.  The
  paper budgets one bit per L2C block (1KB for a 512KB L2C); we store the
  same information as a small int.

The cache is purely structural (hit/miss state); all timing lives in the
hierarchy driver, which combines cache latencies with MSHR occupancy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memory.mshr import MSHR
from repro.sim.config import CacheConfig
from repro.verify import invariants

#: ``issuer`` value for lines not filled by any dueling prefetcher.
NO_ISSUER = -1


class CacheLine:
    """Metadata of one resident cache block."""

    __slots__ = ("dirty", "prefetch", "issuer")

    def __init__(self, dirty: bool = False, prefetch: bool = False,
                 issuer: int = NO_ISSUER) -> None:
        self.dirty = dirty
        self.prefetch = prefetch
        self.issuer = issuer

    def __reduce_ex__(self, protocol: int) -> tuple:
        # Tens of thousands per snapshot: constructor arguments pickle in
        # about half the time and space of the default slot-state dict.
        return CacheLine, (self.dirty, self.prefetch, self.issuer)


class Cache:
    """One level of a set-associative cache with an attached MSHR.

    Replacement is LRU, kept as each set dict's own order: a hit moves
    its block to the end, a fill appends it, and the victim is the first
    key.
    """

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.name = config.name
        self.latency = config.latency
        self.num_sets = config.sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(self.num_sets)]
        self.mshr = MSHR(config.name, config.mshr_entries)
        # In-flight prefetch fills live in a separate structure (the
        # prefetch queue of real designs): prefetches must not consume the
        # demand-miss MSHR entries, or a well-trained prefetcher would
        # starve its own demand stream.
        self.pf_mshr = MSHR(f"{config.name}-PQ", max(16, config.mshr_entries))
        # Statistics
        self.demand_accesses = 0
        self.demand_hits = 0
        self.demand_misses = 0
        self.useful_prefetches = 0    # demand hits on prefetched lines
        self.prefetch_fills = 0
        self.writebacks = 0
        self._check = invariants.enabled()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def set_index(self, block: int) -> int:
        """L2C set index of a block (used by the Set-Dueling selector)."""
        return block & self._set_mask

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def lookup(self, block: int, update_lru: bool = True) -> Optional[CacheLine]:
        """Return the resident line for *block*, or None on miss."""
        cache_set = self._sets[block & self._set_mask]
        line = cache_set.get(block)
        if line is not None and update_lru:
            del cache_set[block]
            cache_set[block] = line
        return line

    def contains(self, block: int) -> bool:
        """Presence check that does not disturb LRU order."""
        return block in self._sets[block & self._set_mask]

    def fill(self, block: int, dirty: bool = False, prefetch: bool = False,
             issuer: int = NO_ISSUER) -> Optional[Tuple[int, CacheLine]]:
        """Insert *block*; return ``(evicted_block, its line)`` if any.

        Filling a block that is already resident only merges metadata
        (e.g. a demand fill racing a prefetch fill clears the prefetch bit).
        """
        idx = block & self._set_mask
        cache_set = self._sets[idx]
        existing = cache_set.get(block)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            if not prefetch:
                existing.prefetch = False
            return None
        evicted = None
        if len(cache_set) >= self.ways:
            victim = next(iter(cache_set))
            victim_line = cache_set.pop(victim)
            if victim_line.dirty:
                self.writebacks += 1
            evicted = (victim, victim_line)
        cache_set[block] = CacheLine(dirty=dirty, prefetch=prefetch, issuer=issuer)
        if prefetch:
            self.prefetch_fills += 1
        if self._check:
            if len(cache_set) > self.ways:
                invariants.violated(
                    f"{self.name}: set {idx} holds {len(cache_set)} lines, "
                    f"exceeding {self.ways} ways")
            if block & self._set_mask != idx:
                invariants.violated(
                    f"{self.name}: block {block:#x} filled into set {idx}, "
                    f"but indexes to set {block & self._set_mask}")
        return evicted

    def invalidate(self, block: int) -> bool:
        """Drop *block* if resident; return True when something was removed."""
        return self._sets[block & self._set_mask].pop(block, None) is not None

    def mark_dirty(self, block: int) -> None:
        line = self.lookup(block, update_lru=False)
        if line is not None:
            line.dirty = True

    # ------------------------------------------------------------------
    # Demand-access accounting (driven by the hierarchy)
    # ------------------------------------------------------------------
    def record_demand(self, hit: bool, line: Optional[CacheLine]) -> Optional[int]:
        """Update demand counters; return the issuer of a useful prefetch.

        Called by the hierarchy on every demand access.  When the access
        hits a line whose prefetch bit is set, the prefetch was *useful*:
        the bit is cleared (a line counts as useful at most once) and the
        issuer annotation is returned so the Set-Dueling selector can
        update its Csel counter.
        """
        self.demand_accesses += 1
        if self._check and hit != (line is not None):
            invariants.violated(
                f"{self.name}: demand recorded as "
                f"{'hit' if hit else 'miss'} but lookup "
                f"{'found' if line is not None else 'did not find'} a line")
        issuer = None
        if hit:
            self.demand_hits += 1
            if line is not None and line.prefetch:
                self.useful_prefetches += 1
                line.prefetch = False
                issuer = line.issuer
        else:
            self.demand_misses += 1
        return issuer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of resident blocks (for tests)."""
        return sum(len(s) for s in self._sets)

    def resident_blocks(self) -> List[int]:
        """All resident block numbers (for tests; order unspecified)."""
        blocks: List[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set)
        return blocks

    def inflight_lookup(self, block: int, now: float):
        """Merge probe across the demand MSHR and the prefetch queue."""
        entry = self.mshr.lookup(block, now)
        if entry is not None:
            return entry
        return self.pf_mshr.lookup(block, now)

    def inflight_contains(self, block: int, now: float) -> bool:
        return (self.mshr.contains(block, now)
                or self.pf_mshr.contains(block, now))

    def reset_stats(self) -> None:
        self.demand_accesses = self.demand_hits = self.demand_misses = 0
        self.useful_prefetches = self.prefetch_fills = self.writebacks = 0
        self.mshr.reset_stats()
        self.pf_mshr.reset_stats()
