"""Prefetcher framework: contexts, requests, and the L2C prefetcher ABC.

Boundary enforcement is deliberately *outside* the prefetchers: a
prefetcher proposes candidate blocks through ``PrefetchContext.emit`` and
the context — configured per access by the PSA wrapper (or by the original
4KB-only policy) — accepts or discards each candidate.  This mirrors the
paper's claim that PPM requires **no modification to the underlying
prefetcher's design**: the same SPP/VLDP/PPF/BOP code runs under every
policy; only the legal prefetch window and the table-index granularity
(a constructor parameter) change.

The context also performs the bookkeeping behind Fig. 2: every candidate
discarded for crossing a 4KB boundary while the trigger block actually
resides in a 2MB page is a *missed opportunity*.  ``PrefetchContext.discard``
is the one place a discard is counted and classified; ``emit`` calls it,
and so does SPP's lookahead, which tests the window inline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from repro.memory.address import (
    BLOCK_BITS,
    PAGE_SIZE_2M,
    page2m_of_block,
)

#: Issuer tags stored in the per-block annotation bit (Section IV-B2).
ISSUER_PSA = 0        # the page-size-aware prefetcher indexing with 4KB pages
ISSUER_PSA_2MB = 1    # the variant indexing with 2MB pages


#: One accepted prefetch, ``(block, fill_l2, issuer)``: the target block,
#: whether it fills the L2C (else only the LLC), and the issuing
#: prefetcher's annotation tag.  A plain tuple: the lookahead builds one
#: per issued candidate.
PrefetchRequest = Tuple[int, bool, int]


class BoundaryStats:
    """Counters for proposed/issued/discarded candidates (Fig. 2)."""

    __slots__ = ("proposed", "issued", "discarded_cross_4k_in_2m",
                 "discarded_cross_4k_in_4k", "discarded_beyond_2m")

    def __init__(self) -> None:
        self.proposed = 0
        self.issued = 0
        #: Discarded at a 4KB boundary although the block is in a 2MB page —
        #: the paper's Fig. 2 numerator (the missed opportunity PPM unlocks).
        self.discarded_cross_4k_in_2m = 0
        #: Discarded at a 4KB boundary and the page really is 4KB (correct).
        self.discarded_cross_4k_in_4k = 0
        #: Discarded because the candidate leaves even the 2MB page.
        self.discarded_beyond_2m = 0

    @property
    def discarded(self) -> int:
        return (self.discarded_cross_4k_in_2m + self.discarded_cross_4k_in_4k
                + self.discarded_beyond_2m)

    def discard_probability_in_2m(self) -> float:
        """P(candidate discarded at 4KB boundary while in a 2MB page)."""
        return (self.discarded_cross_4k_in_2m / self.proposed
                if self.proposed else 0.0)

    def merge(self, other: "BoundaryStats") -> None:
        self.proposed += other.proposed
        self.issued += other.issued
        self.discarded_cross_4k_in_2m += other.discarded_cross_4k_in_2m
        self.discarded_cross_4k_in_4k += other.discarded_cross_4k_in_4k
        self.discarded_beyond_2m += other.discarded_beyond_2m

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundaryStats):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot)
                   for slot in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{slot}={getattr(self, slot)}"
                           for slot in self.__slots__)
        return f"BoundaryStats({fields})"


class PrefetchContext:
    """Per-access emission window handed to the prefetcher.

    ``block``/``ip`` are the trigger access.  ``lo``/``hi`` bound
    (inclusive) the blocks a prefetch may target; the caller derives them
    from the page-size information (or its absence).  ``page_size_bit``
    is what PPM delivered, ``true_page_size`` the trigger's real page
    size, read only to classify discards for Fig. 2 into ``stats``.
    Accepted requests, tagged ``issuer``, are appended to ``requests``.
    """

    __slots__ = ("block", "ip", "page_size_bit", "true_page_size",
                 "lo", "hi", "requests", "stats", "issuer")

    def __init__(self, block: int, ip: int, lo: int, hi: int,
                 stats: BoundaryStats, page_size_bit: Optional[int] = None,
                 true_page_size: int = 0, issuer: int = ISSUER_PSA) -> None:
        self.block = block
        self.ip = ip
        self.page_size_bit = page_size_bit
        self.true_page_size = true_page_size
        self.lo = lo
        self.hi = hi
        self.requests: List[PrefetchRequest] = []
        self.stats = stats
        self.issuer = issuer

    def emit(self, candidate_block: int, fill_l2: bool = True) -> bool:
        """Propose a prefetch for *candidate_block*.

        Returns True when the candidate lies inside the legal window (a
        lookahead prefetcher may keep speculating along this path), False
        when it was discarded at a page boundary (the path must stop, as in
        the original prefetcher implementations).
        """
        if self.lo <= candidate_block <= self.hi:
            stats = self.stats
            stats.proposed += 1
            stats.issued += 1
            self.requests.append((candidate_block, fill_l2, self.issuer))
            return True
        self.discard(candidate_block)
        return False

    def discard(self, candidate_block: int) -> None:
        """Count a proposed candidate that lies outside the window,
        classified for the Fig. 2 accounting."""
        stats = self.stats
        stats.proposed += 1
        if page2m_of_block(candidate_block) == page2m_of_block(self.block):
            if self.true_page_size == PAGE_SIZE_2M:
                stats.discarded_cross_4k_in_2m += 1
            else:
                stats.discarded_cross_4k_in_4k += 1
        else:
            stats.discarded_beyond_2m += 1


class L2Prefetcher(ABC):
    """Base class for spatial L2C prefetchers operating on physical blocks.

    ``region_bits`` selects the page granularity used to index any
    page-indexed internal structure: 12 (4KB) for the original and PSA
    versions, 21 (2MB) for the PSA-2MB versions (Section IV-B1).  Deltas
    are region-relative, so a 2MB region admits deltas in ±32768 while a
    4KB region admits ±64 — exactly the paper's observation about wider
    strides becoming learnable.
    """

    name = "base"

    def __init__(self, region_bits: int = 12, table_scale: float = 1.0) -> None:
        if region_bits <= BLOCK_BITS:
            raise ValueError("region must be larger than a cache block")
        if table_scale <= 0:
            raise ValueError("table_scale must be positive")
        self.table_scale = table_scale
        self.region_bits = region_bits
        self.offset_bits = region_bits - BLOCK_BITS
        self.region_blocks = 1 << self.offset_bits
        self.offset_mask = self.region_blocks - 1

    # ------------------------------------------------------------------
    def region_of(self, block: int) -> int:
        """Region (page) number of a block at this prefetcher's granularity."""
        return block >> self.offset_bits

    def offset_of(self, block: int) -> int:
        """Block offset within its region (0 .. region_blocks-1)."""
        return block & self.offset_mask

    # ------------------------------------------------------------------
    @abstractmethod
    def on_access(self, ctx: PrefetchContext) -> None:
        """Train on one L2C demand access and emit prefetch candidates."""

    # Optional feedback hooks (used by PPF's perceptron filter).
    def on_prefetch_useful(self, block: int) -> None:
        """A prefetch this prefetcher issued was hit by a demand access."""

    def on_prefetch_evicted_unused(self, block: int) -> None:
        """A prefetched block was evicted without ever being demanded."""

    def on_demand_miss(self, block: int) -> None:
        """A demand miss occurred (PPF checks its reject history here)."""

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Approximate metadata storage in bits (for ISO-storage studies)."""
        return 0


class L1DPrefetcher(ABC):
    """Base class for L1D prefetchers operating on *virtual* addresses."""

    name = "l1d-base"

    @abstractmethod
    def on_access(self, vaddr: int, ip: int, hit: bool) -> List[int]:
        """Return prefetch candidate virtual addresses for this access."""
