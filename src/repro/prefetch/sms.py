"""Spatial Memory Streaming (SMS) — Somogyi et al., ISCA 2006.

A footprint-based spatial prefetcher (reference [19] of the paper),
included beyond the paper's four to demonstrate that PPM/PSA wrap *any*
spatial prefetcher:

- **AGT** (Active Generation Table): regions currently being observed.
  Each entry remembers the *trigger* (the IP and offset of the first
  access to the region) and a bitmap of the blocks touched since.
- **PHT** (Pattern History Table): when a generation ends (the AGT entry
  is replaced), its footprint bitmap is filed under the trigger key
  ``(ip, offset)``.
- On the first access to a region, the PHT is probed with the trigger:
  a hit prefetches every block of the recorded footprint — the classic
  "one access predicts the whole region" behaviour.

Footprints are region-relative bitmaps, so the PSA-2MB variant records
footprints over 2MB regions (a much larger bitmap — ``storage_bits``
reflects that cost honestly).
"""

from __future__ import annotations

from typing import Tuple

from repro.prefetch.base import L2Prefetcher, PrefetchContext
from repro.prefetch.tables import BoundedTable


class Generation:
    """One active region observation: trigger plus touched-block bitmap."""

    __slots__ = ("trigger_ip", "trigger_offset", "bitmap")

    def __init__(self, trigger_ip: int, trigger_offset: int) -> None:
        self.trigger_ip = trigger_ip
        self.trigger_offset = trigger_offset
        self.bitmap = 1 << trigger_offset

    def record(self, offset: int) -> None:
        self.bitmap |= 1 << offset

    def key(self) -> Tuple[int, int]:
        return (self.trigger_ip, self.trigger_offset)


class SMS(L2Prefetcher):
    """Spatial Memory Streaming prefetcher."""

    name = "sms"

    AGT_ENTRIES = 32
    PHT_ENTRIES = 2048
    MAX_PREFETCHES = 12     # per trigger, nearest-first

    def __init__(self, region_bits: int = 12, table_scale: float = 1.0) -> None:
        super().__init__(region_bits, table_scale)
        self.agt: BoundedTable[Generation] = BoundedTable(
            max(1, int(self.AGT_ENTRIES * table_scale)))
        self.pht: BoundedTable[int] = BoundedTable(
            max(1, int(self.PHT_ENTRIES * table_scale)))
        self.generations_filed = 0
        self.footprint_hits = 0

    # ------------------------------------------------------------------
    def _end_generation(self, generation: Generation) -> None:
        """File a finished generation's footprint under its trigger."""
        self.pht.put(generation.key(), generation.bitmap)
        self.generations_filed += 1

    def _prefetch_footprint(self, ctx: PrefetchContext, base_block: int,
                            trigger_offset: int, bitmap: int) -> None:
        """Prefetch the recorded footprint, nearest blocks first."""
        offsets = []
        remaining = bitmap & ~(1 << trigger_offset)
        offset = 0
        while remaining:
            if remaining & 1:
                offsets.append(offset)
            remaining >>= 1
            offset += 1
        offsets.sort(key=lambda o: abs(o - trigger_offset))
        for target in offsets[:self.MAX_PREFETCHES]:
            if not ctx.emit(base_block + target, fill_l2=True):
                break

    # ------------------------------------------------------------------
    def on_access(self, ctx: PrefetchContext) -> None:
        region = self.region_of(ctx.block)
        offset = self.offset_of(ctx.block)
        generation = self.agt.get(region)
        if generation is not None:
            generation.record(offset)
            return
        # First access of a new generation: predict from history, then
        # start observing.
        footprint = self.pht.get((ctx.ip, offset))
        if footprint is not None:
            self.footprint_hits += 1
            base_block = ctx.block - offset
            self._prefetch_footprint(ctx, base_block, offset, footprint)
        self._agt_insert(region, Generation(ctx.ip, offset))

    def _agt_insert(self, region: int, generation: Generation) -> None:
        """Insert into the AGT, filing the displaced generation's footprint
        (BoundedTable.put would discard the evicted value)."""
        if len(self.agt) >= self.agt.capacity and region not in self.agt:
            victim_key = next(iter(self.agt))
            victim = self.agt.pop(victim_key)
            if victim is not None:
                self._end_generation(victim)
        self.agt.put(region, generation)

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        per_generation = 32 + self.offset_bits + self.region_blocks
        per_pattern = 32 + self.offset_bits + self.region_blocks
        return (self.agt.capacity * per_generation
                + self.pht.capacity * per_pattern)
