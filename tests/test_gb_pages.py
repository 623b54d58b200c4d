"""Tests for the 1GB-page extension (paper Section IV-A, "Additional
Page Sizes"): PPM widens to 2 bits, the PSA window opens to the 1GB page,
and the VM stack handles the third granularity end to end."""

import pytest

from repro.core.ppm import PageSizePropagationModule
from repro.core.psa import PSAPrefetchModule, prefetch_window
from repro.memory.address import (
    BLOCKS_PER_1G,
    BLOCKS_PER_2M,
    PAGE_1G_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
)
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate_workload
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.vm.page_table import PageTable
from repro.vm.tlb import TLB
from repro.sim.config import TLBConfig

from test_psa import RecordingPrefetcher


class TestAllocator1G:
    def test_gb_fraction_validation(self):
        with pytest.raises(ValueError):
            PhysicalMemoryAllocator(gb_fraction=2.0)

    def test_gb_pages_allocated(self):
        alloc = PhysicalMemoryAllocator(thp_fraction=0.0, gb_fraction=1.0)
        _, size = alloc.translate(0)
        assert size == PAGE_SIZE_1G

    def test_gb_page_contiguous_and_aligned(self):
        alloc = PhysicalMemoryAllocator(gb_fraction=1.0)
        base_p, _ = alloc.translate(0)
        assert base_p % PAGE_1G_SIZE == 0
        for offset in (4096, 2 << 20, PAGE_1G_SIZE - 64):
            paddr, _ = alloc.translate(offset)
            assert paddr == base_p + offset

    def test_gb_default_off(self):
        alloc = PhysicalMemoryAllocator(thp_fraction=1.0)
        _, size = alloc.translate(0)
        assert size == PAGE_SIZE_2M

    def test_gb_frames_unique(self):
        alloc = PhysicalMemoryAllocator(gb_fraction=1.0)
        frames = {alloc.translate(i * PAGE_1G_SIZE)[0] >> 30
                  for i in range(50)}
        assert len(frames) == 50


class TestTLB1G:
    def test_1g_entry_covers_gigabyte(self):
        tlb = TLB(TLBConfig("T", 16, 4, 1, 4))
        tlb.fill(0, PAGE_SIZE_1G)
        for offset in (0, 4096, 2 << 20, PAGE_1G_SIZE - 64):
            assert tlb.lookup(offset) == PAGE_SIZE_1G
        assert tlb.lookup(PAGE_1G_SIZE) is None


class TestWalk1G:
    def test_two_level_walk(self):
        pt = PageTable()
        assert len(pt.walk_addresses(0x4000_0000, PAGE_SIZE_1G)) == 2


class TestPSAWindow1G:
    def test_window_is_whole_gigabyte(self):
        lo, hi = prefetch_window(5, PAGE_SIZE_1G)
        assert lo == 0
        assert hi == BLOCKS_PER_1G - 1

    def test_module_crosses_2m_inside_1g(self):
        module = PSAPrefetchModule(
            RecordingPrefetcher(deltas=(BLOCKS_PER_2M,)), mode="psa")
        requests = module.on_l2_access(
            0, 0, 0, PAGE_SIZE_1G, PAGE_SIZE_1G)
        assert len(requests) == 1   # 2MB-crossing allowed inside a 1GB page

    def test_original_still_4k_bound(self):
        module = PSAPrefetchModule(
            RecordingPrefetcher(deltas=(70,)), mode="original")
        requests = module.on_l2_access(
            0, 0, 0, PAGE_SIZE_1G, PAGE_SIZE_1G)
        assert not requests


class TestPPMWidth:
    def test_two_bits_for_three_sizes(self):
        assert PageSizePropagationModule.bits_per_mshr_entry(3) == 2

    def test_config_knob(self):
        config = SystemConfig()
        config.num_page_sizes = 3
        # 16 L1D MSHR entries x 2 bits.
        ppm = PageSizePropagationModule(num_page_sizes=3)
        assert ppm.storage_overhead_bits(config.l1d.mshr_entries) == 32


class TestEndToEnd1G:
    def test_psa_gains_on_gb_backed_workload(self):
        config = SystemConfig()
        config.num_page_sizes = 3
        base = simulate_workload("lbm", variant="original", config=config,
                                 n_accesses=6000, gb_fraction=1.0)
        psa = simulate_workload("lbm", variant="psa", config=config,
                                n_accesses=6000, gb_fraction=1.0)
        assert psa.ipc > base.ipc * 1.02

    def test_gb_reduces_page_walk_reads(self):
        config = SystemConfig()
        gb = simulate_workload("mcf", variant="none", config=config,
                               n_accesses=6000, gb_fraction=1.0)
        small = simulate_workload("mcf", variant="none", config=config,
                                  n_accesses=6000, gb_fraction=0.0)
        assert gb.page_walks <= small.page_walks
