"""Access Map Pattern Matching (AMPM) — Ishii et al., ICS 2009.

A map-based spatial prefetcher (reference [20] of the paper), included
beyond the paper's four to further demonstrate PPM/PSA generality.

AMPM keeps an *access map* per region: one bit per cache block recording
whether the block has been demanded during the region's residency in the
map table.  On every access at offset ``t`` it pattern-matches candidate
strides: offset ``t + k`` is prefetched when the two backward probes
``t - k`` and ``t - 2k`` are both set — evidence that stride ``k`` is
live at this point of the map.  Both forward and backward directions are
probed; the number of prefetches per access is capped by ``DEGREE``.
"""

from __future__ import annotations

from repro.prefetch.base import L2Prefetcher, PrefetchContext
from repro.prefetch.tables import BoundedTable


class AMPM(L2Prefetcher):
    """Access Map Pattern Matching prefetcher."""

    name = "ampm"

    MAP_ENTRIES = 64
    MAX_STRIDE = 16
    DEGREE = 4

    def __init__(self, region_bits: int = 12, table_scale: float = 1.0) -> None:
        super().__init__(region_bits, table_scale)
        # region -> access bitmap (int, one bit per block)
        self.maps: BoundedTable[int] = BoundedTable(
            max(1, int(self.MAP_ENTRIES * table_scale)))

    # ------------------------------------------------------------------
    def _match(self, bitmap: int, offset: int) -> list:
        """Stride candidates supported by two backward map probes."""
        candidates = []
        for stride in range(1, self.MAX_STRIDE + 1):
            for direction in (1, -1):
                step = stride * direction
                back1 = offset - step
                back2 = offset - 2 * step
                if back1 < 0 or back2 < 0:
                    continue
                if (bitmap >> back1) & 1 and (bitmap >> back2) & 1:
                    candidates.append(step)
            if len(candidates) >= self.DEGREE:
                break
        return candidates[:self.DEGREE]

    def on_access(self, ctx: PrefetchContext) -> None:
        region = self.region_of(ctx.block)
        offset = self.offset_of(ctx.block)
        bitmap = self.maps.get(region)
        if bitmap is None:
            self.maps.put(region, 1 << offset)
            return
        for step in self._match(bitmap, offset):
            if not ctx.emit(ctx.block + step, fill_l2=True):
                break
        self.maps.put(region, bitmap | (1 << offset))

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        # tag(16) + one bit per block of the region, per map entry.
        return self.maps.capacity * (16 + self.region_blocks)
