"""Tests for repro.prefetch.sms — Spatial Memory Streaming."""

from repro.memory.address import BLOCKS_PER_4K
from repro.prefetch.sms import SMS, Generation

from conftest import make_ctx


def touch_region(sms, base_block, offsets, ip=0x50):
    """Access a region at the given offsets; return the last context."""
    ctx = None
    for offset in offsets:
        ctx = make_ctx(base_block + offset, ip=ip)
        sms.on_access(ctx)
    return ctx


def fill_agt(sms):
    """Force all active generations out of the AGT (files footprints)."""
    for i in range(sms.agt.capacity + 1):
        touch_region(sms, (1000 + i) * BLOCKS_PER_4K, [0], ip=0x999)


class TestGeneration:
    def test_trigger_recorded(self):
        generation = Generation(0x50, 5)
        assert generation.key() == (0x50, 5)
        assert generation.bitmap == 1 << 5

    def test_record_accumulates(self):
        generation = Generation(0x50, 0)
        generation.record(3)
        generation.record(7)
        assert generation.bitmap == (1 << 0) | (1 << 3) | (1 << 7)


class TestLearning:
    def test_first_generation_no_prefetch(self):
        sms = SMS()
        ctx = touch_region(sms, 0, [0, 2, 4])
        assert not ctx.requests

    def test_footprint_replayed_on_matching_trigger(self):
        sms = SMS()
        # Build a footprint {0, 2, 4, 6} in one region, then retire it.
        touch_region(sms, 0, [0, 2, 4, 6], ip=0x50)
        fill_agt(sms)
        assert sms.generations_filed >= 1
        # A new region triggered by the same (ip, offset) replays it.
        ctx = make_ctx(50 * BLOCKS_PER_4K, ip=0x50)
        sms.on_access(ctx)
        targets = {block - 50 * BLOCKS_PER_4K for block, _, _ in ctx.requests}
        assert targets == {2, 4, 6}
        assert sms.footprint_hits == 1

    def test_different_trigger_ip_no_replay(self):
        sms = SMS()
        touch_region(sms, 0, [0, 2, 4], ip=0x50)
        fill_agt(sms)
        ctx = make_ctx(60 * BLOCKS_PER_4K, ip=0x51)
        sms.on_access(ctx)
        assert not ctx.requests

    def test_different_trigger_offset_no_replay(self):
        sms = SMS()
        touch_region(sms, 0, [0, 2, 4], ip=0x50)
        fill_agt(sms)
        ctx = make_ctx(60 * BLOCKS_PER_4K + 1, ip=0x50)
        sms.on_access(ctx)
        assert not ctx.requests

    def test_prefetch_count_capped(self):
        sms = SMS()
        touch_region(sms, 0, list(range(0, 40)), ip=0x50)
        fill_agt(sms)
        ctx = make_ctx(70 * BLOCKS_PER_4K, ip=0x50)
        sms.on_access(ctx)
        assert 0 < len(ctx.requests) <= SMS.MAX_PREFETCHES

    def test_nearest_blocks_first(self):
        sms = SMS()
        touch_region(sms, 0, [10, 11, 40], ip=0x50)
        fill_agt(sms)
        ctx = make_ctx(70 * BLOCKS_PER_4K + 10, ip=0x50)
        sms.on_access(ctx)
        blocks = [block - 70 * BLOCKS_PER_4K for block, _, _ in ctx.requests]
        assert blocks[0] == 11   # nearest to the trigger offset

    def test_proposals_never_leave_region(self):
        """SMS footprints are region-relative, so even with a wide-open
        window its candidates stay inside the region — SMS benefits from
        page-size awareness only via 2MB-region footprints."""
        sms = SMS()
        touch_region(sms, 0, list(range(0, 60, 3)), ip=0x50)
        fill_agt(sms)
        base = 90 * BLOCKS_PER_4K
        ctx = make_ctx(base, ip=0x50, window="open")
        sms.on_access(ctx)
        assert ctx.requests
        for target, _, _ in ctx.requests:
            assert base <= target < base + BLOCKS_PER_4K


class TestStructure:
    def test_agt_bounded(self):
        sms = SMS()
        for i in range(SMS.AGT_ENTRIES * 2):
            touch_region(sms, i * BLOCKS_PER_4K, [0])
        assert len(sms.agt) <= sms.agt.capacity

    def test_2mb_region_storage_larger(self):
        assert SMS(region_bits=21).storage_bits() > SMS().storage_bits()
