"""Synthetic memory-trace generators.

Each generator produces a deterministic access pattern that isolates one of
the behaviours the paper's workload suites exhibit (DESIGN.md §4 maps
suites to generators):

- ``streaming``     : sequential sweeps by several concurrent streams.
  With high THP usage, streams cross 4KB boundaries inside 2MB pages
  constantly — the headline Pref-PSA win (lbm, bwaves, fotonik3d_s...).
- ``strided``       : short constant strides (2-8 blocks) within pages.
- ``wide_strided``  : strides larger than a 4KB page (>64 blocks).  A
  4KB-indexed prefetcher sees at most one access per page and can learn
  nothing; only a 2MB-indexed table captures the delta — the ``milc``
  behaviour that makes Pref-PSA-2MB shine.
- ``pointer_chase`` : dependent random accesses (mcf, omnetpp) — little
  spatial prefetchability, exercises the no-harm requirement.
- ``grain4k``       : every 4KB page inside a 2MB region has its *own*
  stride.  Indexing with 2MB pages erroneously generalises different
  patterns into one table entry — the GAP ``tc.road`` behaviour that makes
  Pref-PSA-2MB lose.
- ``phase_mix``     : alternates between two sub-behaviours in long phases
  (QMM industrial traces) — the case where Set Dueling beats either
  component alone.
- ``mixed``         : streams plus background random accesses.

All generators emit virtual addresses in disjoint, 2MB-aligned arenas.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.workloads.trace import KIND_LOAD, KIND_STORE, Record

BLOCK = 64
PAGE_4K = 4096
PAGE_2M = 2 << 20

#: Virtual arena stride: region *i* of a workload starts at (i+1) << 32.
ARENA_SHIFT = 32


def _arena(index: int) -> int:
    return (index + 1) << ARENA_SHIFT


#: Accesses per burst phase (dense <-> sparse alternation).
BURST_PERIOD = 256


def _bubble(rng: random.Random, mean: int, index: int = 0) -> int:
    """Non-memory instruction count between memory accesses (>= 0).

    Real applications are bursty: tight miss bursts alternate with
    compute-heavy stretches.  Bubbles are drawn around a per-phase mean
    (0.25x in dense phases, 1.75x in sparse ones, averaging ~1x) so the
    MSHR saturates during bursts and drains between them — the regime in
    which running ahead across page boundaries pays off.
    """
    if mean <= 0:
        return 0
    phase_mean = mean // 4 if (index // BURST_PERIOD) % 2 == 0 else (7 * mean) // 4
    return rng.randint(0, max(2 * phase_mean, 1))


def _kind(rng: random.Random, store_fraction: float) -> int:
    return KIND_STORE if rng.random() < store_fraction else KIND_LOAD


def _walkers(n: int, seed: int, step_blocks: int, streams: int,
             footprint_bytes: int, span_floor: int, ip_base: int,
             bubble_mean: int, store_fraction: float) -> List[Record]:
    """Round-robin constant-step walkers, one arena per stream: the body
    of the streaming, strided and wide-strided generators."""
    rng = random.Random(seed)
    span = max(footprint_bytes // max(streams, 1), span_floor)
    step = step_blocks * BLOCK
    cursors = [rng.randrange(0, span // 4, BLOCK) for _ in range(streams)]
    records: List[Record] = []
    for i in range(n):
        s = i % streams
        vaddr = _arena(s) + cursors[s]
        cursors[s] = (cursors[s] + step) % span
        records.append((ip_base + s * 8, vaddr, _kind(rng, store_fraction),
                        _bubble(rng, bubble_mean, i), False))
    return records


def gen_streaming(n: int, seed: int, streams: int = 4,
                  footprint_bytes: int = 32 << 20, bubble_mean: int = 28,
                  store_fraction: float = 0.1) -> List[Record]:
    """Round-robin sequential streams over large arrays."""
    return _walkers(n, seed, 1, streams, footprint_bytes, PAGE_2M,
                    0x400000, bubble_mean, store_fraction)


def gen_strided(n: int, seed: int, stride_blocks: int = 3, streams: int = 2,
                footprint_bytes: int = 32 << 20, bubble_mean: int = 28,
                store_fraction: float = 0.1) -> List[Record]:
    """Constant small-stride walkers (stride < one 4KB page)."""
    return _walkers(n, seed, stride_blocks, streams, footprint_bytes,
                    PAGE_2M, 0x410000, bubble_mean, store_fraction)


def gen_wide_strided(n: int, seed: int, stride_blocks: int = 96,
                     streams: int = 2, footprint_bytes: int = 64 << 20,
                     bubble_mean: int = 28,
                     store_fraction: float = 0.05) -> List[Record]:
    """Strides larger than a 4KB page — only 2MB-grain tables learn them."""
    if stride_blocks <= PAGE_4K // BLOCK:
        raise ValueError("wide stride must exceed one 4KB page (64 blocks)")
    return _walkers(n, seed, stride_blocks, streams, footprint_bytes,
                    2 * PAGE_2M, 0x420000, bubble_mean, store_fraction)


def gen_pointer_chase(n: int, seed: int, footprint_bytes: int = 32 << 20,
                      bubble_mean: int = 14,
                      store_fraction: float = 0.05) -> List[Record]:
    """Dependent random accesses: each waits for the previous load."""
    rng = random.Random(seed)
    blocks = footprint_bytes // BLOCK
    records: List[Record] = []
    ip = 0x430000
    for i in range(n):
        vaddr = _arena(0) + rng.randrange(blocks) * BLOCK
        records.append((ip, vaddr, _kind(rng, store_fraction),
                        _bubble(rng, bubble_mean, i), True))
    return records


def gen_grain4k(n: int, seed: int, regions: int = 8, run_length: int = 12,
                stride_choices: int = 5, concurrency: int = 4,
                bubble_mean: int = 28,
                store_fraction: float = 0.1) -> List[Record]:
    """Per-4KB-page private strides, pages accessed *concurrently*.

    Each 2MB region hosts ``concurrency`` interleaved page walkers; every
    4KB page has its own stride (a deterministic function of the page
    number).  A 4KB-indexed prefetcher sees one clean stride per page; a
    2MB-indexed one sees the walkers' interleaving collapsed into a single
    region entry — the erroneous generalisation that makes Pref-PSA-2MB
    lose on GAP graph workloads (paper Section VI-B1, tc.road).
    """
    rng = random.Random(seed)
    pages_per_region = PAGE_2M // PAGE_4K
    blocks_per_page = PAGE_4K // BLOCK
    # Walker state: [region, current page, position within run].
    walkers = [[region, lane, 0]
               for region in range(regions) for lane in range(concurrency)]
    records: List[Record] = []
    for i in range(n):
        # Irregular interleaving (graph traversal): the active page changes
        # unpredictably, unlike lockstep round-robin which would itself be
        # a learnable super-pattern at 2MB granularity.
        walker = walkers[rng.randrange(len(walkers))]
        region, page, position = walker
        stride = 1 + ((page * 2654435761) % stride_choices)
        offset = (position * stride) % blocks_per_page
        vaddr = _arena(region) + page * PAGE_4K + offset * BLOCK
        ip = 0x440000 + stride * 8
        records.append((ip, vaddr, _kind(rng, store_fraction),
                        _bubble(rng, bubble_mean, i), False))
        position += 1
        if position >= run_length:
            position = 0
            page += concurrency
            if page >= pages_per_region:
                page %= concurrency
        walker[1] = page
        walker[2] = position
    return records


def gen_mixed(n: int, seed: int, stream_fraction: float = 0.7, streams: int = 3,
              footprint_bytes: int = 32 << 20, bubble_mean: int = 28,
              store_fraction: float = 0.1) -> List[Record]:
    """Streams with interleaved random (unprefetchable) accesses."""
    rng = random.Random(seed)
    span = max(footprint_bytes // max(streams + 1, 1), PAGE_2M)
    cursors = [0 for _ in range(streams)]
    random_blocks = span // BLOCK
    records: List[Record] = []
    for i in range(n):
        if rng.random() < stream_fraction:
            s = i % streams
            vaddr = _arena(s) + cursors[s]
            cursors[s] = (cursors[s] + BLOCK) % span
            ip = 0x450000 + s * 8
            dep = False
        else:
            vaddr = _arena(streams) + rng.randrange(random_blocks) * BLOCK
            ip = 0x460000
            dep = False
        records.append((ip, vaddr, _kind(rng, store_fraction),
                        _bubble(rng, bubble_mean, i), dep))
    return records


def gen_phase_mix(n: int, seed: int, phase_length: int = 4000,
                  kind_a: str = "streaming", kind_b: str = "wide_strided",
                  params_a: Dict | None = None,
                  params_b: Dict | None = None) -> List[Record]:
    """Alternate two behaviours in long phases (distinct arenas).

    The arena indices of the two sub-generators are offset so their data
    structures do not overlap.
    """
    half = n // 2 + 1
    sub_a = GENERATORS[kind_a](half, seed * 2 + 1, **(params_a or {}))
    sub_b = GENERATORS[kind_b](half, seed * 2 + 2, **(params_b or {}))
    # Shift B's arenas up to keep address spaces disjoint.
    shift = 16 << ARENA_SHIFT
    sub_b = [(ip + 0x100000, vaddr + shift, kind, bubble, dep)
             for ip, vaddr, kind, bubble, dep in sub_b]
    records: List[Record] = []
    ia = ib = 0
    use_a = True
    while len(records) < n:
        source, index = (sub_a, ia) if use_a else (sub_b, ib)
        take = min(phase_length, n - len(records), len(source) - index)
        records.extend(source[index:index + take])
        if use_a:
            ia += take
        else:
            ib += take
        use_a = not use_a
    return records


GENERATORS: Dict[str, Callable[..., List[Record]]] = {
    "streaming": gen_streaming,
    "strided": gen_strided,
    "wide_strided": gen_wide_strided,
    "pointer_chase": gen_pointer_chase,
    "grain4k": gen_grain4k,
    "mixed": gen_mixed,
    "phase_mix": gen_phase_mix,
}
