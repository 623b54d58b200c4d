"""Radix (x86-64 style) page table.

Four levels for 4KB pages (PML4 -> PDPT -> PD -> PT), three for 2MB pages
(the PD entry is a leaf).  The table exists so the page walker has real
physical PTE addresses to fetch through the cache hierarchy: walk traffic
competes with demand traffic for cache capacity and DRAM bandwidth, and 2MB
pages save one level per walk — both effects the paper's background section
relies on.

Nodes are allocated frames from a reserved physical region on demand.
"""

from __future__ import annotations

from typing import Dict, List

from repro.memory.address import PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.vm.allocator import PT_NODE_BASE

#: Bits of virtual address consumed by each level's index (x86-64).
LEVEL_SHIFTS = (39, 30, 21, 12)   # PML4, PDPT, PD, PT
INDEX_MASK = 0x1FF                # 9 bits per level
PTE_BYTES = 8


class PageTable:
    """Sparse radix page table with physically addressed nodes."""

    def __init__(self, node_frame_base: int = PT_NODE_BASE) -> None:
        self._node_frame_base = node_frame_base
        # node id -> physical frame number (4KB units)
        self._node_frame: Dict[int, int] = {}
        # (parent node id, index) -> child node id
        self._children: Dict[tuple, int] = {}
        self._next_node = 0
        self._root = self._new_node()

    def _new_node(self) -> int:
        node = self._next_node
        self._next_node += 1
        self._node_frame[node] = self._node_frame_base + node
        return node

    def _child(self, node: int, index: int) -> int:
        key = (node, index)
        child = self._children.get(key)
        if child is None:
            child = self._new_node()
            self._children[key] = child
        return child

    def node_count(self) -> int:
        return self._next_node

    def pte_address(self, node: int, index: int) -> int:
        """Physical byte address of one PTE within a node frame."""
        return (self._node_frame[node] << 12) | (index * PTE_BYTES)

    def walk_addresses(self, vaddr: int, page_size: int,
                       start_level: int = 0) -> List[int]:
        """Physical addresses the walker must read to translate *vaddr*.

        ``start_level`` lets the MMU caches skip already-cached upper
        levels (0 = start at the PML4).  A 2MB translation terminates at
        the PD level (3 reads from the root), a 4KB one at the PT level
        (4 reads from the root).
        """
        if page_size == PAGE_SIZE_1G:
            levels = 2
        elif page_size == PAGE_SIZE_2M:
            levels = 3
        else:
            levels = 4
        addresses: List[int] = []
        node = self._root
        for level in range(levels):
            index = (vaddr >> LEVEL_SHIFTS[level]) & INDEX_MASK
            if level >= start_level:
                addresses.append(self.pte_address(node, index))
            if level < levels - 1:
                node = self._child(node, index)
        return addresses
