"""Variable Length Delta Prefetcher (VLDP) — Shevgoor et al., MICRO 2015.

VLDP predicts the next delta within a page from variable-length delta
histories:

- **DHB** (Delta History Buffer): per-region record of the last offset and
  the most recent deltas (region granularity = ``region_bits``).
- **DPT-1/2/3** (Delta Prediction Tables): map a history of 1, 2 or 3
  deltas to the predicted next delta, each entry guarded by a 2-bit
  accuracy counter.  Prediction always prefers the longest matching
  history (the "variable length" part).
- **OPT** (Offset Prediction Table): predicts the first delta of a freshly
  touched region from its first accessed offset, enabling prefetching on
  region entry before any delta history exists.

Prefetching chains up to ``DEGREE`` predicted deltas per access; every
prefetch fills the L2C (VLDP targets the L2 in the original paper).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.prefetch.base import L2Prefetcher, PrefetchContext
from repro.prefetch.tables import BoundedTable, saturate

CONF_MAX = 3          # 2-bit accuracy counters
HISTORY_LEN = 3


def _train_entry(table: BoundedTable, key, delta: int) -> None:
    """Teach *table* that *key* is followed by *delta*, the DPTs' and the
    OPT's one rule: a repeat raises the ``[delta, confidence]`` entry's
    2-bit counter, another delta lowers it and takes over at zero."""
    entry = table.get(key)
    if entry is None:
        table.put(key, [delta, 1])
    elif entry[0] == delta:
        entry[1] = saturate(entry[1] + 1, 0, CONF_MAX)
    else:
        entry[1] -= 1
        if entry[1] <= 0:
            entry[0] = delta
            entry[1] = 1


class VLDP(L2Prefetcher):
    """Variable Length Delta Prefetcher."""

    name = "vldp"

    DHB_ENTRIES = 64
    DPT_ENTRIES = 128
    OPT_ENTRIES = 64
    DEGREE = 4

    def __init__(self, region_bits: int = 12, table_scale: float = 1.0) -> None:
        super().__init__(region_bits, table_scale)
        # region -> (last_offset, tuple of recent deltas, newest last)
        self.dhb: BoundedTable[Tuple[int, Tuple[int, ...]]] = BoundedTable(
            max(1, int(self.DHB_ENTRIES * table_scale)))
        # One DPT per history length; key: delta tuple -> [pred, confidence]
        self.dpts: List[BoundedTable[list]] = [
            BoundedTable(max(1, int(self.DPT_ENTRIES * table_scale)))
            for _ in range(HISTORY_LEN)]
        # first offset -> [predicted first delta, confidence]
        self.opt: BoundedTable[list] = BoundedTable(
            max(1, int(self.OPT_ENTRIES * table_scale)))

    # ------------------------------------------------------------------
    def _train_tables(self, history: Tuple[int, ...], delta: int) -> None:
        """Teach each DPT that *history* is followed by *delta*."""
        for length in range(1, min(len(history), HISTORY_LEN) + 1):
            _train_entry(self.dpts[length - 1], history[-length:], delta)

    def _predict(self, history: Tuple[int, ...]) -> Optional[int]:
        """Longest-history DPT prediction with non-zero confidence."""
        for length in range(min(len(history), HISTORY_LEN), 0, -1):
            entry = self.dpts[length - 1].get(history[-length:], touch=False)
            if entry is not None and entry[1] > 0:
                return entry[0]
        return None

    # ------------------------------------------------------------------
    def on_access(self, ctx: PrefetchContext) -> None:
        region = self.region_of(ctx.block)
        offset = self.offset_of(ctx.block)
        dhb_entry = self.dhb.get(region)
        if dhb_entry is None:
            self.dhb.put(region, (offset, ()))
            self._prefetch_on_region_entry(ctx, offset)
            return
        last_offset, history = dhb_entry
        delta = offset - last_offset
        if delta == 0:
            return
        if not history:
            # First delta of the region trains the OPT under the region's
            # first offset.
            _train_entry(self.opt, last_offset, delta)
        else:
            self._train_tables(history, delta)
        history = (history + (delta,))[-HISTORY_LEN:]
        self.dhb.put(region, (offset, history))
        self._prefetch_chain(ctx, offset, history)

    def _prefetch_on_region_entry(self, ctx: PrefetchContext, offset: int) -> None:
        """Use the OPT to prefetch before any delta history exists."""
        opt_entry = self.opt.get(offset, touch=False)
        if opt_entry is not None and opt_entry[1] >= 2:
            ctx.emit(ctx.block + opt_entry[0], fill_l2=True)

    def _prefetch_chain(self, ctx: PrefetchContext, offset: int,
                        history: Tuple[int, ...]) -> None:
        cursor_block = ctx.block
        speculative = history
        for _ in range(self.DEGREE):
            predicted = self._predict(speculative)
            if predicted is None:
                break
            cursor_block += predicted
            if not ctx.emit(cursor_block, fill_l2=True):
                break
            speculative = (speculative + (predicted,))[-HISTORY_LEN:]

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        dhb_bits = self.dhb.capacity * (16 + self.offset_bits
                                        + HISTORY_LEN * 16)
        dpt_bits = sum(t.capacity * (HISTORY_LEN * 16 + 16 + 2)
                       for t in self.dpts)
        opt_bits = self.opt.capacity * (self.offset_bits + 16 + 2)
        return dhb_bits + dpt_bits + opt_bits
