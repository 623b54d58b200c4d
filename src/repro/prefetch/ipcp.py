"""Instruction Pointer Classifier Prefetcher (IPCP) — Pakalapati & Panda,
ISCA 2020.  The state-of-the-art L1D prefetcher the paper compares against
in Section VI-B5.

IPCP classifies each load IP and prefetches according to its class:

- **CS (constant stride)**: the IP repeats a stride with high confidence —
  prefetch ``CS_DEGREE`` strides ahead.
- **GS (global stream)**: the IP participates in a dense forward/backward
  sweep of a region — prefetch ``GS_DEGREE`` next lines in the stream
  direction.

- **CPLX (complex stride)**: for IPs whose stride varies, a signature of
  the recent stride history indexes a prediction table; confident
  predictions chain like CS but follow the varying pattern.

IPCP operates on **virtual** addresses at the L1D.  The original version
clamps prefetches to the 4KB virtual page of the trigger.  **IPCP++** may
cross page boundaries, but only when the target page's translation is TLB
resident (the paper's constraint for safe/timely L1D page crossing) —
expressed here as the ``may_cross`` predicate supplied by the hierarchy.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.memory.address import (
    BLOCK_BITS,
    PAGE_4K_BITS,
    block_address,
    block_number,
    page_of_block,
)
from repro.prefetch.base import L1DPrefetcher
from repro.prefetch.tables import BoundedTable, saturate

BLOCKS_PER_PAGE = 1 << (PAGE_4K_BITS - BLOCK_BITS)


def _never(vaddr: int) -> bool:
    """The default ``may_cross``: no page is known TLB resident."""
    return False


class IPEntry:
    """Per-IP tracking state."""

    __slots__ = ("last_block", "stride", "confidence", "signature")

    def __init__(self, last_block: int) -> None:
        self.last_block = last_block
        self.stride = 0
        self.confidence = 0
        self.signature = 0    # CPLX: hash of recent stride history


class RegionEntry:
    """Per-region stream detector state."""

    __slots__ = ("last_block", "direction", "touches")

    def __init__(self, last_block: int) -> None:
        self.last_block = last_block
        self.direction = 0
        self.touches = 1


class IPCP(L1DPrefetcher):
    """IP-classifying L1D prefetcher (CS + GS classes)."""

    name = "ipcp"

    IP_TABLE_ENTRIES = 1024
    REGION_ENTRIES = 64
    CSPT_ENTRIES = 512       # CPLX stride prediction table
    CS_DEGREE = 4
    GS_DEGREE = 6
    CPLX_DEGREE = 3
    CS_CONF_MIN = 2
    GS_TOUCHES_MIN = 4
    CPLX_CONF_MIN = 2
    SIG_BITS = 9

    def __init__(self, cross_page: bool = False,
                 may_cross: Optional[Callable[[int], bool]] = None) -> None:
        """``cross_page`` selects IPCP++ behaviour; ``may_cross(vaddr)``
        must then report whether the target page is TLB resident."""
        self.cross_page = cross_page
        self.may_cross = may_cross if may_cross is not None else _never
        self.ip_table: BoundedTable[IPEntry] = BoundedTable(self.IP_TABLE_ENTRIES)
        self.region_table: BoundedTable[RegionEntry] = BoundedTable(
            self.REGION_ENTRIES)
        # CPLX: stride-history signature -> [predicted stride, confidence]
        self.cspt: BoundedTable[list] = BoundedTable(self.CSPT_ENTRIES)
        self.issued = 0
        self.dropped_at_boundary = 0

    # ------------------------------------------------------------------
    def _boundary_ok(self, trigger_block: int, candidate_block: int) -> bool:
        if page_of_block(candidate_block) == page_of_block(trigger_block):
            return True
        if self.cross_page and self.may_cross(block_address(candidate_block)):
            return True
        self.dropped_at_boundary += 1
        return False

    def _next_signature(self, signature: int, stride: int) -> int:
        mask = (1 << self.SIG_BITS) - 1
        return ((signature << 3) ^ (stride & mask)) & mask

    def _classify_cs(self, ip: int, block: int) -> Optional[int]:
        """Update CS + CPLX state; return a confident CS stride if any."""
        entry = self.ip_table.get(ip)
        if entry is None:
            self.ip_table.put(ip, IPEntry(block))
            return None
        stride = block - entry.last_block
        entry.last_block = block
        if stride == 0:
            return entry.stride if entry.confidence >= self.CS_CONF_MIN else None
        # CPLX training: the previous signature predicted this stride.
        cspt_entry = self.cspt.get(entry.signature)
        if cspt_entry is None:
            self.cspt.put(entry.signature, [stride, 1])
        elif cspt_entry[0] == stride:
            cspt_entry[1] = saturate(cspt_entry[1] + 1, 0, 3)
        else:
            cspt_entry[1] -= 1
            if cspt_entry[1] <= 0:
                cspt_entry[0] = stride
                cspt_entry[1] = 1
        entry.signature = self._next_signature(entry.signature, stride)
        if stride == entry.stride:
            entry.confidence = saturate(entry.confidence + 1, 0, 3)
        else:
            entry.confidence = saturate(entry.confidence - 1, 0, 3)
            if entry.confidence == 0:
                entry.stride = stride
        if entry.confidence >= self.CS_CONF_MIN and entry.stride:
            return entry.stride
        return None

    def _classify_cplx(self, ip: int, block: int) -> list:
        """Chain CPLX predictions from the IP's current signature."""
        entry = self.ip_table.get(ip, touch=False)
        if entry is None:
            return []
        signature = entry.signature
        candidates = []
        cursor = block
        for _ in range(self.CPLX_DEGREE):
            prediction = self.cspt.get(signature, touch=False)
            if prediction is None or prediction[1] < self.CPLX_CONF_MIN:
                break
            cursor += prediction[0]
            candidates.append(cursor)
            signature = self._next_signature(signature, prediction[0])
        return candidates

    def _classify_gs(self, block: int) -> Optional[int]:
        """Update GS state; return the stream direction if dense enough."""
        region = page_of_block(block)
        entry = self.region_table.get(region)
        if entry is None:
            self.region_table.put(region, RegionEntry(block))
            return None
        step = block - entry.last_block
        if step in (1, -1):
            if entry.direction == step:
                entry.touches += 1
            else:
                entry.direction = step
                entry.touches = 1
        entry.last_block = block
        if entry.touches >= self.GS_TOUCHES_MIN and entry.direction:
            return entry.direction
        return None

    # ------------------------------------------------------------------
    def on_access(self, vaddr: int, ip: int, hit: bool) -> List[int]:
        block = block_number(vaddr)
        candidates: List[int] = []
        stride = self._classify_cs(ip, block)
        if stride is not None:
            # CS class: constant stride, highest priority.
            for k in range(1, self.CS_DEGREE + 1):
                candidate = block + stride * k
                if self._boundary_ok(block, candidate):
                    candidates.append(candidate)
                else:
                    break
        else:
            # CPLX class: signature-predicted varying strides.
            for candidate in self._classify_cplx(ip, block):
                if self._boundary_ok(block, candidate):
                    candidates.append(candidate)
                else:
                    break
            if not candidates:
                # GS class: dense region stream.
                direction = self._classify_gs(block)
                if direction is not None:
                    for k in range(1, self.GS_DEGREE + 1):
                        candidate = block + direction * k
                        if self._boundary_ok(block, candidate):
                            candidates.append(candidate)
                        else:
                            break
        self.issued += len(candidates)
        return [block_address(c) for c in candidates]
