"""Tests for repro.core.psa — PSA windows and the prefetch module."""

import pytest

from repro.core.psa import L2PrefetchModule, PSAPrefetchModule, prefetch_window
from repro.memory.address import (
    BLOCKS_PER_2M,
    BLOCKS_PER_4K,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.prefetch.base import ISSUER_PSA_2MB, L2Prefetcher
from repro.prefetch.spp import SPP


class RecordingPrefetcher(L2Prefetcher):
    """Emits a fixed set of candidate deltas; records the contexts it saw."""

    name = "recording"

    def __init__(self, deltas=(1, 70), region_bits=12):
        super().__init__(region_bits)
        self.deltas = deltas
        self.contexts = []

    def on_access(self, ctx):
        self.contexts.append(ctx)
        for delta in self.deltas:
            ctx.emit(ctx.block + delta)


class TestPrefetchWindow:
    def test_4k_window(self):
        lo, hi = prefetch_window(70, None)
        assert lo == 64 and hi == 127

    def test_2m_window(self):
        lo, hi = prefetch_window(70, PAGE_SIZE_2M)
        assert lo == 0 and hi == BLOCKS_PER_2M - 1

    def test_window_contains_trigger(self):
        for block in (0, 63, 64, 32768, 99999):
            for size in (None, PAGE_SIZE_4K, PAGE_SIZE_2M):
                lo, hi = prefetch_window(block, size)
                assert lo <= block <= hi

    def test_window_alignment(self):
        lo4, hi4 = prefetch_window(12345, PAGE_SIZE_4K)
        assert lo4 % BLOCKS_PER_4K == 0
        assert hi4 - lo4 == BLOCKS_PER_4K - 1
        lo2, hi2 = prefetch_window(12345, PAGE_SIZE_2M)
        assert lo2 % BLOCKS_PER_2M == 0
        assert hi2 - lo2 == BLOCKS_PER_2M - 1


class TestOriginalMode:
    def test_always_4k_window(self):
        """Original prefetchers stop at 4KB even for blocks in 2MB pages."""
        module = PSAPrefetchModule(RecordingPrefetcher(), mode="original")
        requests = module.on_l2_access(
            block=60, ip=0, set_index=0,
            page_size_bit=PAGE_SIZE_2M, true_page_size=PAGE_SIZE_2M)
        # +70 crossed, discarded
        assert [block for block, _, _ in requests] == [61]
        assert module.stats.discarded_cross_4k_in_2m == 1

    def test_discard_classified_4k_truth(self):
        module = PSAPrefetchModule(RecordingPrefetcher(), mode="original")
        module.on_l2_access(60, 0, 0, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert module.stats.discarded_cross_4k_in_4k == 1
        assert module.stats.discarded_cross_4k_in_2m == 0


class TestPSAMode:
    def test_2m_bit_opens_window(self):
        module = PSAPrefetchModule(RecordingPrefetcher(), mode="psa")
        requests = module.on_l2_access(
            60, 0, 0, PAGE_SIZE_2M, PAGE_SIZE_2M)
        assert [block for block, _, _ in requests] == [61, 130]

    def test_4k_bit_keeps_4k_window(self):
        module = PSAPrefetchModule(RecordingPrefetcher(), mode="psa")
        requests = module.on_l2_access(
            60, 0, 0, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert [block for block, _, _ in requests] == [61]

    def test_missing_bit_conservative(self):
        """No PPM info (bit None): must behave like the original."""
        module = PSAPrefetchModule(RecordingPrefetcher(), mode="psa")
        requests = module.on_l2_access(
            60, 0, 0, None, PAGE_SIZE_2M)
        assert [block for block, _, _ in requests] == [61]

    def test_never_crosses_2m(self):
        module = PSAPrefetchModule(
            RecordingPrefetcher(deltas=(BLOCKS_PER_2M,)), mode="psa")
        requests = module.on_l2_access(
            0, 0, 0, PAGE_SIZE_2M, PAGE_SIZE_2M)
        assert not requests
        assert module.stats.discarded_beyond_2m == 1

    def test_issuer_tag_propagated(self):
        module = PSAPrefetchModule(RecordingPrefetcher(), mode="psa",
                                   issuer=ISSUER_PSA_2MB)
        requests = module.on_l2_access(
            0, 0, 0, PAGE_SIZE_2M, PAGE_SIZE_2M)
        assert all(issuer == ISSUER_PSA_2MB for _, _, issuer in requests)


class TestModuleInterface:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PSAPrefetchModule(RecordingPrefetcher(), mode="magic")

    def test_feedback_routed_to_prefetcher(self):
        calls = []

        class Hooked(RecordingPrefetcher):
            def on_prefetch_useful(self, block):
                calls.append(("useful", block))

            def on_prefetch_evicted_unused(self, block):
                calls.append(("evicted", block))

            def on_demand_miss(self, block):
                calls.append(("miss", block))

        module = PSAPrefetchModule(Hooked(), mode="psa")
        module.on_useful(1, 0)
        module.on_evicted_unused(2, 0)
        module.on_demand_miss(3)
        assert calls == [("useful", 1), ("evicted", 2), ("miss", 3)]

    def test_storage_bits_delegated(self):
        module = PSAPrefetchModule(SPP(), mode="psa")
        assert module.storage_bits() == SPP().storage_bits()

    def test_stub_module_no_prefetches(self):
        stub = L2PrefetchModule()
        assert stub.on_l2_access(0, 0, 0, None, 0) == []
        stub.on_useful(0, 0)
        stub.on_demand_miss(0)
        assert stub.storage_bits() == 0

    def test_name_includes_mode(self):
        module = PSAPrefetchModule(SPP(), mode="original")
        assert module.name == "spp-original"
