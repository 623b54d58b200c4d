"""Tests for repro.vm.walker — MMU caches and the full translator."""

import pytest

from repro.memory.address import PAGE_2M_SIZE, PAGE_4K_SIZE, PAGE_SIZE_2M
from repro.sim.config import SystemConfig
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.vm.walker import AddressTranslator, MMUCache


def flat_walk(latency=50.0):
    """A walk_fn charging a fixed latency per PTE read."""
    reads = []

    def walk_fn(paddr, now):
        reads.append(paddr)
        return now + latency
    walk_fn.reads = reads
    return walk_fn


def make_translator(thp=1.0):
    config = SystemConfig()
    allocator = PhysicalMemoryAllocator(thp_fraction=thp)
    return AddressTranslator(config, allocator)


class TestMMUCache:
    def test_empty_cache_starts_at_root(self):
        mmu = MMUCache(8)
        assert mmu.deepest_cached_level(0x1234_5000, 4) == 0
        assert mmu.misses == 1

    def test_cached_level_skips(self):
        mmu = MMUCache(8)
        mmu.fill(0x1234_5000, level=2)
        assert mmu.deepest_cached_level(0x1234_5000, 4) == 3
        assert mmu.hits == 1

    def test_deepest_level_preferred(self):
        mmu = MMUCache(8)
        mmu.fill(0x1234_5000, level=0)
        mmu.fill(0x1234_5000, level=2)
        assert mmu.deepest_cached_level(0x1234_5000, 4) == 3

    def test_capacity_bounded(self):
        mmu = MMUCache(2)
        for i in range(5):
            mmu.fill(i << 21, level=2)
        assert len(mmu.table) == 2


class TestWalk:
    def test_4k_walk_reads_four_levels_cold(self):
        translator = make_translator(thp=0.0)
        walk_fn = flat_walk()
        translator.walk(0x4000_0000, 0, now=0.0, walk_fn=walk_fn)
        assert len(walk_fn.reads) == 4

    def test_2m_walk_reads_three_levels_cold(self):
        translator = make_translator(thp=1.0)
        walk_fn = flat_walk()
        translator.walk(0x4000_0000, PAGE_SIZE_2M, now=0.0, walk_fn=walk_fn)
        assert len(walk_fn.reads) == 3

    def test_second_walk_shorter_via_mmu_cache(self):
        translator = make_translator(thp=0.0)
        walk_fn = flat_walk()
        translator.walk(0x4000_0000, 0, now=0.0, walk_fn=walk_fn)
        first = len(walk_fn.reads)
        translator.walk(0x4000_0000 + PAGE_4K_SIZE, 0, now=0.0,
                        walk_fn=walk_fn)
        assert len(walk_fn.reads) - first < first

    def test_walk_latency_serial(self):
        translator = make_translator(thp=0.0)
        latency = translator.walk(0x4000_0000, 0, now=0.0,
                                  walk_fn=flat_walk(latency=50.0))
        assert latency == pytest.approx(200.0)   # 4 serial reads


class TestTranslate:
    def test_dtlb_hit_zero_latency(self):
        translator = make_translator()
        walk_fn = flat_walk()
        translator.translate(0x1000, 0.0, walk_fn)          # cold: walks
        _, latency, _ = translator.translate(0x1000, 0.0, walk_fn)
        assert latency == 0.0

    def test_stlb_hit_costs_stlb_latency(self):
        translator = make_translator(thp=0.0)
        walk_fn = flat_walk()
        # Warm the STLB, then flush the DTLB by filling it with conflicts.
        translator.translate(0x0, 0.0, walk_fn)
        dtlb_reach = translator.dtlb.num_sets * translator.dtlb.ways
        for i in range(1, 4 * dtlb_reach):
            translator.translate(i * PAGE_4K_SIZE, 0.0, walk_fn)
        walks_before = translator.walks
        _, latency, _ = translator.translate(0x0, 0.0, walk_fn)
        # Either an STLB hit (no new walk) with exactly the STLB latency...
        if translator.walks == walks_before:
            assert latency == pytest.approx(float(translator.stlb.latency))
        else:  # ...or the STLB also evicted it (acceptable, larger latency)
            assert latency > translator.stlb.latency

    def test_miss_latency_includes_walk(self):
        translator = make_translator(thp=0.0)
        _, latency, _ = translator.translate(0x9000_0000, 0.0,
                                             flat_walk(latency=50.0))
        assert latency == pytest.approx(translator.stlb.latency + 200.0)

    def test_page_size_returned(self):
        translator = make_translator(thp=1.0)
        _, _, size = translator.translate(0x0, 0.0, flat_walk())
        assert size == PAGE_SIZE_2M

    def test_2m_translation_caches_whole_region(self):
        translator = make_translator(thp=1.0)
        walk_fn = flat_walk()
        translator.translate(0x0, 0.0, walk_fn)
        walks_before = translator.walks
        translator.translate(PAGE_2M_SIZE - 64, 0.0, walk_fn)
        assert translator.walks == walks_before   # same 2MB entry

    def test_is_tlb_resident(self):
        translator = make_translator()
        assert not translator.is_tlb_resident(0x7000)
        translator.translate(0x7000, 0.0, flat_walk())
        assert translator.is_tlb_resident(0x7000)

    def test_reset_stats(self):
        translator = make_translator()
        translator.translate(0x1000, 0.0, flat_walk())
        translator.reset_stats()
        assert translator.walks == 0
        assert translator.dtlb.hits == 0
