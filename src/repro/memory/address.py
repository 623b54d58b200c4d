"""Address geometry helpers shared by every subsystem.

The simulator uses 64-byte cache blocks and two concurrently supported page
sizes, mirroring the paper's x86 setup: standard 4KB pages and 2MB large
pages (Linux THP).  All addresses are plain Python ints (byte addresses)
unless a name says otherwise:

- ``block``   : byte address >> BLOCK_BITS (block number)
- ``page``    : byte address >> PAGE_4K_BITS (4KB page/frame number)
- ``page2m``  : byte address >> PAGE_2M_BITS (2MB page/frame number)
- ``offset``  : block index within a page (0..63 for 4KB, 0..32767 for 2MB)

Keeping these conversions in one module avoids shift/mask constants being
sprinkled (and mistyped) across the codebase.
"""

from __future__ import annotations

BLOCK_BITS = 6
BLOCK_SIZE = 1 << BLOCK_BITS  # 64 bytes

PAGE_4K_BITS = 12
PAGE_4K_SIZE = 1 << PAGE_4K_BITS
PAGE_2M_BITS = 21
PAGE_2M_SIZE = 1 << PAGE_2M_BITS
PAGE_1G_BITS = 30
PAGE_1G_SIZE = 1 << PAGE_1G_BITS

#: Cache blocks per page, by page size.
BLOCKS_PER_4K = PAGE_4K_SIZE >> BLOCK_BITS  # 64
BLOCKS_PER_2M = PAGE_2M_SIZE >> BLOCK_BITS  # 32768
BLOCKS_PER_1G = PAGE_1G_SIZE >> BLOCK_BITS  # 16777216

#: 4KB pages per 2MB page.
PAGES_4K_PER_2M = PAGE_2M_SIZE >> PAGE_4K_BITS  # 512

#: Page-size codes stored in MSHR entries / translation metadata.
#: With 1GB support enabled, PPM needs ceil(log2(3)) = 2 bits per entry
#: (Section IV-A, "Additional Page Sizes").
PAGE_SIZE_4K = 0
PAGE_SIZE_2M = 1
PAGE_SIZE_1G = 2


def block_number(addr: int) -> int:
    """Return the cache-block number of a byte address."""
    return addr >> BLOCK_BITS


def block_address(block: int) -> int:
    """Return the byte address of a cache-block number."""
    return block << BLOCK_BITS


def page_number(addr: int) -> int:
    """Return the 4KB page number of a byte address."""
    return addr >> PAGE_4K_BITS


def page2m_number(addr: int) -> int:
    """Return the 2MB page number of a byte address."""
    return addr >> PAGE_2M_BITS


def page_of_block(block: int) -> int:
    """Return the 4KB page number containing a cache block."""
    return block >> (PAGE_4K_BITS - BLOCK_BITS)


def page2m_of_block(block: int) -> int:
    """Return the 2MB page number containing a cache block."""
    return block >> (PAGE_2M_BITS - BLOCK_BITS)


def block_offset_in_4k(block: int) -> int:
    """Return the block index within its 4KB page (0..63)."""
    return block & (BLOCKS_PER_4K - 1)


def block_offset_in_2m(block: int) -> int:
    """Return the block index within its 2MB page (0..32767)."""
    return block & (BLOCKS_PER_2M - 1)


def same_4k_page(block_a: int, block_b: int) -> bool:
    """True when two blocks share one 4KB page."""
    return page_of_block(block_a) == page_of_block(block_b)


def same_2m_page(block_a: int, block_b: int) -> bool:
    """True when two blocks share one 2MB page."""
    return page2m_of_block(block_a) == page2m_of_block(block_b)


def make_address(page: int, byte_offset: int = 0) -> int:
    """Build a byte address from a 4KB page number and an in-page offset."""
    return (page << PAGE_4K_BITS) | (byte_offset & (PAGE_4K_SIZE - 1))


def page1g_number(addr: int) -> int:
    """Return the 1GB page number of a byte address."""
    return addr >> PAGE_1G_BITS


# ----------------------------------------------------------------------
# Vectorized (columnar) variants, used by the hot-path kernel
# ----------------------------------------------------------------------
# Each helper is the array form of its scalar namesake above, so the
# shift/mask constants stay defined in exactly one module.  They accept
# and return numpy integer arrays; numpy itself is optional (the scalar
# simulator never imports these).

def page_numbers(addrs):
    """Array form of :func:`page_number` (4KB page numbers)."""
    return addrs >> PAGE_4K_BITS


def page2m_numbers(addrs):
    """Array form of :func:`page2m_number` (2MB page numbers)."""
    return addrs >> PAGE_2M_BITS


def page1g_numbers(addrs):
    """Array form of :func:`page1g_number` (1GB page numbers)."""
    return addrs >> PAGE_1G_BITS
