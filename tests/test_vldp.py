"""Tests for repro.prefetch.vldp — Variable Length Delta Prefetcher."""

from repro.memory.address import BLOCKS_PER_4K
from repro.prefetch.vldp import HISTORY_LEN, VLDP

from conftest import make_ctx


def feed(vldp, blocks, window="4k"):
    ctx = None
    for block in blocks:
        ctx = make_ctx(block, window=window)
        vldp.on_access(ctx)
    return ctx


class TestTraining:
    def test_first_touch_no_history(self):
        vldp = VLDP()
        ctx = make_ctx(100)
        vldp.on_access(ctx)
        assert vldp.dhb.get(vldp.region_of(100)) is not None

    def test_constant_stride_predicted(self):
        vldp = VLDP()
        ctx = feed(vldp, [0, 2, 4, 6, 8, 10])
        assert ctx.requests
        assert ctx.requests[0][0] == 12

    def test_chain_prefetches_degree(self):
        vldp = VLDP()
        ctx = feed(vldp, list(range(0, 20)))
        assert 1 <= len(ctx.requests) <= VLDP.DEGREE
        # Chained: consecutive predicted blocks.
        blocks = [block for block, _, _ in ctx.requests]
        assert blocks == sorted(blocks)

    def test_variable_length_pattern(self):
        """A 2-delta alternating pattern needs the DPT-2 to disambiguate."""
        vldp = VLDP()
        blocks = [0]
        for _ in range(20):
            blocks.append(blocks[-1] + (1 if len(blocks) % 2 else 3))
        ctx = feed(vldp, blocks)
        assert ctx.requests
        expected_next = blocks[-1] + (1 if len(blocks) % 2 else 3)
        assert ctx.requests[0][0] == expected_next

    def test_boundary_respected(self):
        vldp = VLDP()
        ctx = feed(vldp, list(range(BLOCKS_PER_4K - 6, BLOCKS_PER_4K - 1)))
        for target, _, _ in ctx.requests:
            assert target < BLOCKS_PER_4K

    def test_crossing_with_2m_window(self):
        vldp = VLDP()
        ctx = feed(vldp, list(range(BLOCKS_PER_4K - 6, BLOCKS_PER_4K - 1)),
                   window="2m")
        assert any(block >= BLOCKS_PER_4K for block, _, _ in ctx.requests)

    def test_zero_delta_ignored(self):
        vldp = VLDP()
        feed(vldp, [0, 1, 2])
        ctx = make_ctx(2)
        vldp.on_access(ctx)
        entry = vldp.dhb.get(vldp.region_of(2))
        assert entry[0] == 2   # last offset unchanged by repeat access


class TestOPT:
    def test_opt_prefetches_on_region_entry(self):
        vldp = VLDP()
        # Teach: regions entered at offset 0 continue with delta 2.
        for region in range(4):
            base = region * BLOCKS_PER_4K
            feed(vldp, [base, base + 2, base + 4])
        # Entering a fresh region at offset 0 should trigger an OPT
        # prefetch of +2 before any delta history exists.
        base = 10 * BLOCKS_PER_4K
        ctx = make_ctx(base)
        vldp.on_access(ctx)
        assert ctx.requests
        assert ctx.requests[0][0] == base + 2

    def test_opt_low_confidence_silent(self):
        vldp = VLDP()
        base = 10 * BLOCKS_PER_4K
        ctx = make_ctx(base)
        vldp.on_access(ctx)   # OPT empty: nothing
        assert not ctx.requests


class TestStructure:
    def test_dhb_bounded(self):
        vldp = VLDP()
        for region in range(VLDP.DHB_ENTRIES + 20):
            feed(vldp, [region * BLOCKS_PER_4K])
        assert len(vldp.dhb) <= VLDP.DHB_ENTRIES

    def test_history_length_capped(self):
        vldp = VLDP()
        feed(vldp, list(range(0, 30, 2)))
        _, history = vldp.dhb.get(0)
        assert len(history) <= HISTORY_LEN

    def test_region_bits_param(self):
        vldp = VLDP(region_bits=21)
        assert vldp.region_blocks == 32768

    def test_storage_bits_positive(self):
        assert VLDP().storage_bits() > 0
