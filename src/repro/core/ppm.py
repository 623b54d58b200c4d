"""Page-size Propagation Module (PPM) — the paper's first contribution.

PPM is deliberately tiny, which is the point of the paper: the page size of
a missed block is already known at the (VIPT) L1D as part of the address
translation metadata, so propagating it to the L2C prefetcher costs only
**one bit per L1D MSHR entry** (for two concurrent page sizes; ``log2(N)``
bits for N sizes).  On an L1D miss the bit is written into the allocated
MSHR entry; since the L2C prefetcher is engaged on L2C accesses — i.e.
exactly on L1 misses — the bit travels with the request stream and reaches
the prefetcher with zero additional lookups and **no reverse translation**.

Propagation to an LLC prefetcher (Section IV-A "Applicability on LLC
Prefetching") adds the same bit to the L2C MSHR entries and one more copy
step, which the hierarchy performs on an L2C miss when
``config.ppm_to_llc`` is set.
"""

from __future__ import annotations

import math

from repro.memory.mshr import MSHR
from repro.verify import invariants


class PageSizePropagationModule:
    """Plumbs the translation-metadata page size into MSHR entries."""

    def __init__(self, enabled: bool = True, num_page_sizes: int = 2) -> None:
        if num_page_sizes < 2:
            raise ValueError("PPM needs at least two concurrent page sizes")
        self.enabled = enabled
        self.num_page_sizes = num_page_sizes
        self.annotations = 0
        self._check = invariants.enabled()

    @staticmethod
    def bits_per_mshr_entry(num_page_sizes: int = 2) -> int:
        """Storage overhead: ceil(log2 N) bits per L1D MSHR entry."""
        return max(1, math.ceil(math.log2(num_page_sizes)))

    def storage_overhead_bits(self, l1d_mshr_entries: int) -> int:
        """Total extra storage PPM adds to one core's L1D MSHR."""
        return l1d_mshr_entries * self.bits_per_mshr_entry(self.num_page_sizes)

    # ------------------------------------------------------------------
    def annotate_l1d_miss(self, l1d_mshr: MSHR, block: int, ready: float,
                          page_size: int) -> None:
        """Record the miss in the L1D MSHR, with the page-size bit if on."""
        bit = page_size if self.enabled else 0
        if self._check:
            if not 0 <= page_size < 3:
                invariants.violated(
                    f"PPM: page-size code {page_size!r} for block {block:#x} "
                    f"is not a valid encoding (expected 0=4K, 1=2M, 2=1G)")
            if not self.enabled and bit != 0:
                invariants.violated(
                    "PPM: disabled module must annotate page-size bit 0, "
                    f"got {bit}")
        if self.enabled:
            self.annotations += 1
        l1d_mshr.insert(block, ready, page_size=bit)

    def page_size_for_l2(self, page_size: int):
        """Page-size information delivered to the L2C prefetcher.

        Returns the page-size code when PPM is enabled, or None when it is
        not — a prefetcher without PPM has no notion of page size and must
        conservatively assume 4KB (the pre-PPM status quo).
        """
        return page_size if self.enabled else None
