"""Cross-cutting behavioural tests of the prefetcher zoo.

These check properties that hold across prefetchers (window obedience,
region-granularity effects, shadow-training equivalence) rather than
single-implementation details.
"""

import pytest

from repro.core.factory import PREFETCHERS
from repro.memory.address import BLOCKS_PER_2M, BLOCKS_PER_4K, PAGE_SIZE_2M
from repro.prefetch.base import BoundaryStats, PrefetchContext

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


class TestShadowTrainingEquivalence:
    """Training through a collect=False context must leave the prefetcher
    in exactly the state of an issuing context (the composite's shadow
    training depends on it)."""

    @pytest.mark.parametrize("name", ["spp", "vldp", "bop", "ampm"])
    def test_state_identical_after_shadow_run(self, name):
        blocks = list(range(0, 50, 2)) + list(range(100, 140))
        live = PREFETCHERS[name]()
        shadow = PREFETCHERS[name]()
        for block in blocks:
            live.on_access(make_ctx(block, window="4k"))
            shadow.on_access(make_ctx(block, window="4k", collect=False))
        # Next access must produce identical candidates from both.
        probe = blocks[-1] + 2
        live_ctx = make_ctx(probe, window="4k")
        shadow_ctx = make_ctx(probe, window="4k")
        live.on_access(live_ctx)
        shadow.on_access(shadow_ctx)
        assert ([block for block, _, _ in live_ctx.requests]
                == [block for block, _, _ in shadow_ctx.requests])


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
