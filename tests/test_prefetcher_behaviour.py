"""Cross-cutting behavioural tests of the prefetcher zoo.

These check properties that hold across prefetchers (window obedience,
region-granularity effects, Pref-PSA-SD members training as standalone
modules) rather than single-implementation details.
"""

import pickle

import pytest

from repro.core.factory import PREFETCHERS, make_l2_module
from repro.memory.address import (BLOCKS_PER_2M, BLOCKS_PER_4K, PAGE_SIZE_2M,
                                  PAGE_SIZE_4K)
from repro.prefetch.base import BoundaryStats, PrefetchContext
from repro.sim.config import SystemConfig

from conftest import make_ctx

L2_PREFETCHERS = ["spp", "vldp", "ppf", "bop", "next-line", "sms", "ampm"]


def drive(prefetcher, blocks, window="4k", ip=0x40):
    issued = []
    for block in blocks:
        ctx = make_ctx(block, window=window, ip=ip)
        prefetcher.on_access(ctx)
        issued.extend(block for block, _, _ in ctx.requests)
    return issued


class TestWindowObedience:
    """No prefetcher may ever issue outside the context window — the
    security property the 4KB restriction exists for."""

    @pytest.mark.parametrize("name", L2_PREFETCHERS)
    def test_never_escapes_4k_window(self, name):
        prefetcher = PREFETCHERS[name]()
        for block in range(0, 2 * BLOCKS_PER_4K):        # crosses a page
            ctx = make_ctx(block, window="4k")
            prefetcher.on_access(ctx)
            lo = block & ~(BLOCKS_PER_4K - 1)
            for target, _, _ in ctx.requests:
                assert lo <= target <= lo + BLOCKS_PER_4K - 1

    @pytest.mark.parametrize("name", L2_PREFETCHERS)
    def test_never_escapes_2m_window(self, name):
        prefetcher = PREFETCHERS[name]()
        start = BLOCKS_PER_2M - 100
        for block in range(start, BLOCKS_PER_2M + 100):
            ctx = make_ctx(block, window="2m")
            prefetcher.on_access(ctx)
            lo = block & ~(BLOCKS_PER_2M - 1)
            for target, _, _ in ctx.requests:
                assert lo <= target <= lo + BLOCKS_PER_2M - 1


class TestStreamProficiency:
    """Every spatial prefetcher must eventually cover a plain unit-stride
    stream (the minimum bar for the Fig. 13 comparison)."""

    @pytest.mark.parametrize("name", ["spp", "vldp", "ppf", "bop",
                                      "next-line", "ampm"])
    def test_unit_stream_covered(self, name):
        prefetcher = PREFETCHERS[name]()
        blocks = list(range(0, 60))
        issued = set(drive(prefetcher, blocks, window="4k"))
        # The back half of the page should be almost fully prefetched
        # before its demands arrive.
        hits = sum(1 for b in range(32, 60) if b in issued)
        assert hits >= 20, f"{name} covered only {hits}/28 stream blocks"


class TestCompositeMembersTrainStandalone:
    """Each Pref-PSA-SD member trains exactly as a standalone module of its
    granularity does: the composite drops the unselected member's
    requests, and nothing else about the member may differ."""

    @staticmethod
    def stream():
        """``(block, page_size_bit, true_page_size)``: interleaved strided
        walks across 4KB and 2MB boundaries (one in a 2MB page that PPM
        does not report), and one footprint repeated over 50 2MB pages
        (SMS replays it)."""
        walks = [[(start + i * stride, bit, size) for i in range(150)]
                 for start, stride, bit, size in (
                     (0, 1, PAGE_SIZE_4K, PAGE_SIZE_4K),
                     (BLOCKS_PER_2M, 3, PAGE_SIZE_2M, PAGE_SIZE_2M),
                     (5 * BLOCKS_PER_2M + 40, -2, PAGE_SIZE_2M, PAGE_SIZE_2M),
                     (9 * BLOCKS_PER_4K, 5, PAGE_SIZE_4K, PAGE_SIZE_4K),
                     (12 * BLOCKS_PER_2M + 7, 2, None, PAGE_SIZE_2M))]
        walks.append([((20 + i // 3) * BLOCKS_PER_2M + (0, 2, 5)[i % 3],
                       PAGE_SIZE_2M, PAGE_SIZE_2M) for i in range(150)])
        return [access for step in zip(*walks) for access in step]

    @pytest.mark.parametrize("name", L2_PREFETCHERS)
    def test_members_match_standalone_modules(self, name):
        config = SystemConfig()
        composite = make_l2_module(name, "psa-sd", config)
        twins = (make_l2_module(name, "psa", config),
                 make_l2_module(name, "psa-2mb", config))
        set_mask = config.l2c.sets - 1
        for block, page_size_bit, true_page_size in self.stream():
            for module in (composite, *twins):
                module.on_l2_access(block, 0x40, block & set_mask,
                                    page_size_bit, true_page_size)
                module.on_demand_miss(block)
        for member, twin in zip(composite.members, twins):
            assert member.stats.proposed > 0
            assert member.stats == twin.stats
            assert pickle.dumps(member.prefetcher) == \
                pickle.dumps(twin.prefetcher)


class TestRegionGranularity:
    @pytest.mark.parametrize("name", ["spp", "vldp", "sms", "ampm"])
    def test_region_bits_honoured(self, name):
        prefetcher = PREFETCHERS[name](region_bits=21)
        assert prefetcher.region_blocks == BLOCKS_PER_2M

    @pytest.mark.parametrize("name", L2_PREFETCHERS)
    def test_storage_accounting_nonnegative(self, name):
        assert PREFETCHERS[name]().storage_bits() >= 0


class TestFeedbackHooksAreSafe:
    """Every prefetcher must tolerate feedback for unknown blocks."""

    @pytest.mark.parametrize("name", L2_PREFETCHERS)
    def test_unknown_block_feedback(self, name):
        prefetcher = PREFETCHERS[name]()
        prefetcher.on_prefetch_useful(123456)
        prefetcher.on_prefetch_evicted_unused(123456)
        prefetcher.on_demand_miss(123456)
