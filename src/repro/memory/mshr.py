"""Miss Status Holding Registers (MSHRs).

MSHRs track in-flight misses: a demand access to a block that is already
being fetched merges with the outstanding entry instead of issuing a second
request, and a full MSHR stalls further misses.  This is also where the
paper's contribution physically lives: PPM adds **one page-size bit per L1D
MSHR entry** so the page size of the missed block travels with the miss to
the L2C prefetcher (Section IV-A of the paper).

Entries are retired lazily: an entry whose ``ready`` cycle is in the past is
treated as free capacity the next time the MSHR is consulted.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.verify import invariants


class MSHR:
    """A bounded table of in-flight misses keyed by block number.

    Each entry records the cycle the fill completes (``ready``) and the
    page-size code of the missed block (``page_size``, meaningful only when
    the owning cache participates in PPM).
    """

    __slots__ = ("name", "capacity", "_entries", "stalls", "merges",
                 "inserts", "_check", "_floor")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"{name}: MSHR capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._entries: Dict[int, Tuple[float, int]] = {}
        self.stalls = 0   # times a miss found the MSHR full
        self.merges = 0   # times a miss merged with an in-flight entry
        self.inserts = 0
        self._check = invariants.enabled()
        #: Lower bound on the smallest ``ready`` among current entries —
        #: a pure scan accelerator.  While ``_floor > now`` a capacity
        #: sweep provably finds nothing to retire, so ``_expire`` skips
        #: it.  Lazy deletions may leave the bound loose (never stale
        #: high); it is not behavioural state.
        self._floor = float("inf")

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, block: int, now: float) -> Optional[Tuple[float, int]]:
        """Return (ready, page_size) if *block* is in flight at *now*."""
        entry = self._entries.get(block)
        if entry is None:
            return None
        if entry[0] <= now:
            # Fill already completed; retire lazily.
            del self._entries[block]
            return None
        self.merges += 1
        return entry

    def contains(self, block: int, now: float) -> bool:
        """True if *block* is still in flight at *now* (no merge accounting)."""
        entry = self._entries.get(block)
        if entry is None:
            return False
        if entry[0] <= now:
            del self._entries[block]
            return False
        return True

    def _expire(self, now: float) -> None:
        if len(self._entries) < self.capacity or self._floor > now:
            return
        dead = [b for b, (ready, _) in self._entries.items() if ready <= now]
        for block in dead:
            del self._entries[block]
        self._floor = min((ready for ready, _ in self._entries.values()),
                          default=float("inf"))

    def is_full(self, now: float) -> bool:
        """True when no entry can be allocated at *now*."""
        self._expire(now)
        return len(self._entries) >= self.capacity

    def earliest_ready(self) -> float:
        """Cycle at which the next in-flight entry completes.

        Used to model stall time when the MSHR is full: the requester must
        wait until an entry frees before its miss can be allocated.
        """
        if not self._entries:
            raise RuntimeError(f"{self.name}: earliest_ready on empty MSHR")
        return min(ready for ready, _ in self._entries.values())

    def stall_until_free(self, now: float) -> float:
        """Return the (possibly later) cycle at which an entry is available."""
        if not self.is_full(now):
            return now
        self.stalls += 1
        return self.earliest_ready()

    def insert(self, block: int, ready: float, page_size: int = 0) -> None:
        """Allocate an entry; caller must have ensured capacity."""
        if self._check:
            # Callers must probe lookup()/contains() (which retire stale
            # entries) before allocating: a still-present entry for the
            # same block means two concurrent fills for one block.
            existing = self._entries.get(block)
            if existing is not None and existing[0] > ready:
                invariants.violated(
                    f"{self.name}: duplicate in-flight entry for block "
                    f"{block:#x} (live until {existing[0]}, new fill at "
                    f"{ready})")
        self._expire(ready)
        if len(self._entries) >= self.capacity:
            raise RuntimeError(f"{self.name}: insert into full MSHR")
        self._entries[block] = (ready, page_size)
        self.inserts += 1
        if ready < self._floor:
            self._floor = ready
        if self._check and len(self._entries) > self.capacity:
            invariants.violated(
                f"{self.name}: {len(self._entries)} entries exceed "
                f"capacity {self.capacity}")

    def page_size_of(self, block: int) -> Optional[int]:
        """PPM read port: page-size bit of an in-flight entry, if present."""
        entry = self._entries.get(block)
        return None if entry is None else entry[1]

    def reset_stats(self) -> None:
        self.stalls = self.merges = self.inserts = 0
