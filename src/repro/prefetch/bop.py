"""Best-Offset Prefetcher (BOP) — Michaud, HPCA 2016.

BOP learns a single global best offset *D* and prefetches ``block + D`` on
every trigger access.  Learning runs in rounds: each access tests one
candidate offset *o* from a fixed list — if ``block - o`` sits in the
Recent Requests (RR) table, a prefetch with offset *o* issued at that
earlier time would have been timely, so *o* scores a point.  A round ends
when an offset saturates at ``SCORE_MAX`` or after ``ROUND_MAX`` full
passes; the highest scorer becomes the new *D* (prefetching is disabled
for the round when even the best score is below ``BAD_SCORE``).

BOP has **no structure indexed by page number**, so its PSA-2MB version is
identical to its PSA version — the paper calls this out explicitly
(Section VI-B1) and our tests assert it.  ``region_bits`` is accepted for
interface uniformity but only influences nothing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.prefetch.base import L2Prefetcher, PrefetchContext


def _candidate_offsets(limit: int = 256) -> List[int]:
    """Offsets with prime factors in {2, 3, 5} up to *limit* (BO paper)."""
    offsets = []
    for value in range(1, limit + 1):
        n = value
        for prime in (2, 3, 5):
            while n % prime == 0:
                n //= prime
        if n == 1:
            offsets.append(value)
    return offsets


class BOP(L2Prefetcher):
    """Best-Offset prefetcher with round-based offset selection."""

    name = "bop"

    OFFSETS = _candidate_offsets()
    RR_ENTRIES = 256
    SCORE_MAX = 31
    ROUND_MAX = 100
    BAD_SCORE = 1

    def __init__(self, region_bits: int = 12, table_scale: float = 1.0) -> None:
        super().__init__(region_bits, table_scale)
        self.rr_entries = max(1, int(self.RR_ENTRIES * table_scale))
        self._rr = [-1] * self.rr_entries
        self._scores: Dict[int, int] = {o: 0 for o in self.OFFSETS}
        self._test_index = 0
        self._rounds = 0
        self.best_offset = 1
        self.prefetch_enabled = True
        self.offset_selections: List[int] = []   # history, for tests

    # ------------------------------------------------------------------
    def _rr_index(self, block: int) -> int:
        return (block ^ (block >> 8)) % self.rr_entries

    def _rr_insert(self, block: int) -> None:
        self._rr[self._rr_index(block)] = block

    def _rr_contains(self, block: int) -> bool:
        return self._rr[self._rr_index(block)] == block

    # ------------------------------------------------------------------
    def _end_round(self) -> None:
        best = max(self._scores, key=self._scores.__getitem__)
        best_score = self._scores[best]
        self.prefetch_enabled = best_score >= self.BAD_SCORE
        self.best_offset = best
        self.offset_selections.append(best)
        self._scores = {o: 0 for o in self.OFFSETS}
        self._rounds = 0
        self._test_index = 0

    def _learn(self, block: int) -> None:
        offset = self.OFFSETS[self._test_index]
        if self._rr_contains(block - offset):
            self._scores[offset] += 1
            if self._scores[offset] >= self.SCORE_MAX:
                self._end_round()
                return
        self._test_index += 1
        if self._test_index >= len(self.OFFSETS):
            self._test_index = 0
            self._rounds += 1
            if self._rounds >= self.ROUND_MAX:
                self._end_round()

    # ------------------------------------------------------------------
    def on_access(self, ctx: PrefetchContext) -> None:
        self._learn(ctx.block)
        self._rr_insert(ctx.block)
        if self.prefetch_enabled:
            ctx.emit(ctx.block + self.best_offset, fill_l2=True)

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        rr_bits = self.rr_entries * 16
        score_bits = len(self.OFFSETS) * 5
        return rr_bits + score_bits


class NextLinePrefetcher(L2Prefetcher):
    """Degree-1 next-line prefetcher (the reference point in Fig. 13)."""

    name = "next-line"

    def on_access(self, ctx: PrefetchContext) -> None:
        ctx.emit(ctx.block + 1, fill_l2=True)

    def storage_bits(self) -> int:
        return 0
