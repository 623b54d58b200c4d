"""Tests for repro.core.ppm — the Page-size Propagation Module."""

import pytest

from repro.core.ppm import PageSizePropagationModule
from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.memory.mshr import MSHR


class TestStorageOverhead:
    def test_one_bit_for_two_sizes(self):
        """The paper's headline cost: one bit per L1D MSHR entry."""
        assert PageSizePropagationModule.bits_per_mshr_entry(2) == 1

    def test_log2_bits_for_more_sizes(self):
        assert PageSizePropagationModule.bits_per_mshr_entry(3) == 2
        assert PageSizePropagationModule.bits_per_mshr_entry(4) == 2
        assert PageSizePropagationModule.bits_per_mshr_entry(8) == 3

    def test_total_overhead(self):
        ppm = PageSizePropagationModule()
        # Table I: 16-entry L1D MSHR -> 16 bits total.
        assert ppm.storage_overhead_bits(16) == 16

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            PageSizePropagationModule(num_page_sizes=1)


class TestAnnotation:
    def test_enabled_stores_page_size(self):
        ppm = PageSizePropagationModule(enabled=True)
        mshr = MSHR("L1D", 4)
        ppm.annotate_l1d_miss(mshr, block=5, ready=100.0,
                              page_size=PAGE_SIZE_2M)
        assert mshr.page_size_of(5) == PAGE_SIZE_2M
        assert ppm.annotations == 1

    def test_disabled_stores_zero(self):
        ppm = PageSizePropagationModule(enabled=False)
        mshr = MSHR("L1D", 4)
        ppm.annotate_l1d_miss(mshr, block=5, ready=100.0,
                              page_size=PAGE_SIZE_2M)
        assert mshr.page_size_of(5) == 0
        assert ppm.annotations == 0


class TestDelivery:
    def test_enabled_delivers_size(self):
        ppm = PageSizePropagationModule(enabled=True)
        assert ppm.page_size_for_l2(PAGE_SIZE_2M) == PAGE_SIZE_2M
        assert ppm.page_size_for_l2(PAGE_SIZE_4K) == PAGE_SIZE_4K

    def test_disabled_delivers_none(self):
        """Without PPM the prefetcher has no page-size notion at all."""
        ppm = PageSizePropagationModule(enabled=False)
        assert ppm.page_size_for_l2(PAGE_SIZE_2M) is None
