"""Perceptron-based Prefetch Filtering (PPF) — Bhatia et al., ISCA 2019.

PPF wraps SPP: the SPP engine speculates *more aggressively* (lower
lookahead threshold) and every candidate is vetted by a perceptron whose
features describe the candidate and the speculation state.  Two outcome
thresholds map the perceptron sum to an action: fill into L2C when the sum
clears ``TAU_HI``, fill into LLC when it clears ``TAU_LO``, reject
otherwise.

Feedback closes the loop:

- a *useful* prefetch (demand hit on a prefetched line) trains the
  recorded feature weights up,
- a prefetched line evicted without use trains them down,
- a demand miss on a block PPF recently *rejected* trains them up (the
  filter was too conservative).

The Prefetch Table and Reject Table hold the feature vectors of recent
decisions so this training can find them again.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.prefetch.base import PrefetchContext
from repro.prefetch.spp import SPP, SIG_MASK
from repro.prefetch.tables import BoundedTable, saturate

WEIGHT_MIN = -32
WEIGHT_MAX = 31


class PerceptronFilter:
    """Hashed perceptron over prefetch-candidate features."""

    #: (feature name, table size) — sizes follow the PPF paper's scale.
    FEATURES = (
        ("ip", 4096),
        ("ip_shifted", 4096),
        ("candidate_offset", 1024),
        ("trigger_offset", 1024),
        ("signature", 4096),
        ("delta", 1024),
        ("depth_confidence", 1024),
        ("page_xor_offset", 4096),
    )

    def __init__(self, table_scale: float = 1.0) -> None:
        self.tables: List[List[int]] = [
            [0] * max(1, int(size * table_scale)) for _, size in self.FEATURES]

    def feature_indices(self, ip: int, candidate: int, trigger: int,
                        sig: int, delta: int, depth: int,
                        confidence_bucket: int,
                        region: int) -> Tuple[int, ...]:
        raw = (
            ip,
            ip >> 4,
            candidate & 0x3F,
            trigger & 0x3F,
            sig & SIG_MASK,
            delta & 0x3FF,
            (depth << 4) | confidence_bucket,
            (region ^ candidate) & 0xFFF,
        )
        return tuple(value % len(table)
                     for value, table in zip(raw, self.tables))

    def predict(self, indices: Tuple[int, ...]) -> int:
        return sum(table[i] for table, i in zip(self.tables, indices))

    def train(self, indices: Tuple[int, ...], positive: bool) -> None:
        step = 1 if positive else -1
        for table, i in zip(self.tables, indices):
            table[i] = saturate(table[i] + step, WEIGHT_MIN, WEIGHT_MAX)

    def storage_bits(self) -> int:
        return sum(len(table) * 6 for table in self.tables)


class PPF(SPP):
    """SPP with a perceptron prefetch filter."""

    name = "ppf"

    # PPF lets SPP speculate deeper and relies on the filter for precision.
    PF_THRESHOLD = 0.10
    MAX_DEPTH = 12
    TAU_HI = 2      # >= -> fill L2C
    TAU_LO = -2     # >= -> fill LLC, else reject
    HISTORY_ENTRIES = 1024

    def __init__(self, region_bits: int = 12, table_scale: float = 1.0) -> None:
        super().__init__(region_bits, table_scale)
        self.filter = PerceptronFilter(table_scale)
        # block -> feature indices of the accept/reject decision
        self.prefetch_table: BoundedTable[Tuple[int, ...]] = BoundedTable(
            max(1, int(self.HISTORY_ENTRIES * table_scale)))
        self.reject_table: BoundedTable[Tuple[int, ...]] = BoundedTable(
            max(1, int(self.HISTORY_ENTRIES * table_scale)))
        self.accepted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    def vet(self, ctx: PrefetchContext, candidate: int,
            path_confidence: float, depth: int, sig: int,
            delta: int) -> Optional[bool]:
        """Score one lookahead candidate: fill the L2C (True), the LLC
        (False), or reject it (None).  A rejected candidate does not stop
        the walk: PPF keeps vetting deeper candidates along the same path."""
        confidence_bucket = min(15, int(path_confidence * 16))
        indices = self.filter.feature_indices(
            ctx.ip, candidate, ctx.block, sig, delta, depth,
            confidence_bucket, self.region_of(ctx.block))
        score = self.filter.predict(indices)
        if score < self.TAU_LO:
            self.rejected += 1
            self.reject_table.put(candidate, indices)
            return None
        self.accepted += 1
        if ctx.lo <= candidate <= ctx.hi:
            # Only an issued prefetch comes back as feedback.
            self.prefetch_table.put(candidate, indices)
        return score >= self.TAU_HI

    # ------------------------------------------------------------------
    # Feedback hooks (invoked by the hierarchy via the PSA wrapper)
    # ------------------------------------------------------------------
    def on_prefetch_useful(self, block: int) -> None:
        indices = self.prefetch_table.pop(block)
        if indices is not None:
            self.filter.train(indices, positive=True)

    def on_prefetch_evicted_unused(self, block: int) -> None:
        indices = self.prefetch_table.pop(block)
        if indices is not None:
            self.filter.train(indices, positive=False)

    def on_demand_miss(self, block: int) -> None:
        indices = self.reject_table.pop(block)
        if indices is not None:
            self.filter.train(indices, positive=True)

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        history_bits = (self.prefetch_table.capacity
                        + self.reject_table.capacity) * 64
        return super().storage_bits() + self.filter.storage_bits() + history_bits
