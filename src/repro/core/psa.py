"""Page Size Aware (PSA) prefetch modules.

A *module* is what the memory hierarchy talks to on every L2C access.  The
``PSAPrefetchModule`` wraps one underlying spatial prefetcher and decides,
per access, the legal prefetch window:

- ``mode='original'``  : always the trigger's 4KB page (pre-PPM behaviour,
  the baselines of Figs. 8/9);
- ``mode='psa'``       : 4KB page when the page-size bit is 0 or absent,
  the whole 2MB page when the bit is 1 — this is Pref-PSA (PPM consumer).

The underlying prefetcher is unmodified in either mode (the paper's key
property); a Pref-PSA-2MB is simply this module around a prefetcher
instantiated with ``region_bits=21``.

The module's ``BoundaryStats`` provide Fig. 2: in 'original' mode every
candidate discarded at the 4KB boundary while the block truly resides in a
2MB page is a missed opportunity.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.address import (
    BLOCKS_PER_1G,
    BLOCKS_PER_2M,
    BLOCKS_PER_4K,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
)
from repro.prefetch.base import (
    ISSUER_PSA,
    BoundaryStats,
    L2Prefetcher,
    PrefetchContext,
    PrefetchRequest,
)

MODES = ("original", "psa")


def prefetch_window(block: int, page_size) -> tuple:
    """Inclusive (lo, hi) block range a prefetch may target.

    ``page_size`` is the page-size information available to the
    prefetcher: ``PAGE_SIZE_2M`` opens the window to the trigger's 2MB
    page, ``PAGE_SIZE_1G`` to its 1GB page (the paper's "Additional Page
    Sizes" extension), anything else — including ``None`` when no
    page-size information exists — falls back to the conservative 4KB
    window.
    """
    if page_size == PAGE_SIZE_1G:
        lo = block & ~(BLOCKS_PER_1G - 1)
        return lo, lo + BLOCKS_PER_1G - 1
    if page_size == PAGE_SIZE_2M:
        lo = block & ~(BLOCKS_PER_2M - 1)
        return lo, lo + BLOCKS_PER_2M - 1
    lo = block & ~(BLOCKS_PER_4K - 1)
    return lo, lo + BLOCKS_PER_4K - 1


class L2PrefetchModule:
    """Interface the hierarchy drives; also the no-prefetching stub."""

    name = "none"

    def on_l2_access(self, block: int, ip: int, set_index: int,
                     page_size_bit: Optional[int],
                     true_page_size: int) -> List[PrefetchRequest]:
        return []

    def on_useful(self, block: int, issuer: int) -> None:
        """A prefetched line was hit by demand (L2C or LLC)."""

    def on_evicted_unused(self, block: int, issuer: int) -> None:
        """A prefetched line was evicted without being demanded."""

    def on_demand_miss(self, block: int) -> None:
        """A demand access missed the L2C."""

    def storage_bits(self) -> int:
        return 0

    def reset_stats(self) -> None:
        """Zero statistics at the measurement boundary (state preserved)."""


class PSAPrefetchModule(L2PrefetchModule):
    """One prefetcher under a page-size-aware (or original) window policy."""

    def __init__(self, prefetcher: L2Prefetcher, mode: str = "psa",
                 issuer: int = ISSUER_PSA) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.prefetcher = prefetcher
        self.mode = mode
        self.issuer = issuer
        self.stats = BoundaryStats()
        self.name = f"{prefetcher.name}-{mode}"

    def on_l2_access(self, block: int, ip: int, set_index: int,
                     page_size_bit: Optional[int],
                     true_page_size: int) -> List[PrefetchRequest]:
        window_size = page_size_bit if self.mode == "psa" else None
        lo, hi = prefetch_window(block, window_size)
        return self.train(block, ip, lo, hi, page_size_bit, true_page_size)

    def train(self, block: int, ip: int, lo: int, hi: int,
              page_size_bit: Optional[int],
              true_page_size: int) -> List[PrefetchRequest]:
        """Train on one access inside the window ``[lo, hi]``; return the
        requests the prefetcher emitted."""
        ctx = PrefetchContext(block, ip, lo, hi, self.stats, page_size_bit,
                              true_page_size, self.issuer)
        self.prefetcher.on_access(ctx)
        return ctx.requests

    def on_useful(self, block: int, issuer: int) -> None:
        self.prefetcher.on_prefetch_useful(block)

    def on_evicted_unused(self, block: int, issuer: int) -> None:
        self.prefetcher.on_prefetch_evicted_unused(block)

    def on_demand_miss(self, block: int) -> None:
        self.prefetcher.on_demand_miss(block)

    def storage_bits(self) -> int:
        return self.prefetcher.storage_bits()

    def reset_stats(self) -> None:
        self.stats = BoundaryStats()
