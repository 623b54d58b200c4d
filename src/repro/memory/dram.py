"""DRAM timing model with row buffers and bounded channel bandwidth.

The model captures the two DRAM effects the paper's evaluation depends on:

1. **Row-buffer locality** — spatial prefetches tend to hit open rows,
   lowering their service latency (Section II-A).
2. **Bandwidth saturation** — the constrained evaluation (Fig. 12C) sweeps
   the transfer rate from 400 to 6400 MT/s and the 8-core study is
   bandwidth-limited.  Each channel serves one 64B line per
   ``cycles_per_transfer`` core cycles; requests queue behind the channel's
   next-free pointer.

Addresses are interleaved across channels and banks at block granularity,
rows span ``row_bytes`` within one bank.
"""

from __future__ import annotations

from typing import List

from repro.sim.config import DRAMConfig


class DRAM:
    """Main memory: per-bank open rows plus per-channel bandwidth queues."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.channels = config.channels
        self.banks = config.banks_per_channel
        self._blocks_per_row = config.row_bytes // 64
        self._open_rows: List[List[int]] = [
            [-1] * self.banks for _ in range(self.channels)]
        self._channel_free: List[float] = [0.0] * self.channels
        self._cycles_per_transfer = config.cycles_per_transfer
        # Statistics
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.total_queue_cycles = 0.0

    def _route(self, block: int) -> tuple:
        channel = block % self.channels
        within = block // self.channels
        bank = within % self.banks
        row = within // (self.banks * self._blocks_per_row)
        return channel, bank, row

    def access(self, block: int, now: float, is_write: bool = False) -> float:
        """Serve one 64B request; return the cycle its data is available.

        Writes are posted (the caller does not wait for them) but still
        consume channel bandwidth and disturb row buffers, so heavy
        writeback traffic delays subsequent reads.
        """
        channel, bank, row = self._route(block)
        start = self._channel_free[channel]
        if start < now:
            start = now
        self.total_queue_cycles += start - now
        open_row = self._open_rows[channel][bank]
        if open_row == row:
            latency = self.config.row_hit_latency
            self.row_hits += 1
        else:
            latency = self.config.row_miss_latency
            self.row_misses += 1
            self._open_rows[channel][bank] = row
        self._channel_free[channel] = start + self._cycles_per_transfer
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return start + latency

    def row_hit_ratio(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.reads = self.writes = self.row_hits = self.row_misses = 0
        self.total_queue_cycles = 0.0
