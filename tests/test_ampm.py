"""Tests for repro.prefetch.ampm — Access Map Pattern Matching."""

from repro.memory.address import BLOCKS_PER_4K
from repro.prefetch.ampm import AMPM

from conftest import make_ctx


def feed(ampm, blocks, window="4k"):
    ctx = None
    for block in blocks:
        ctx = make_ctx(block, window=window)
        ampm.on_access(ctx)
    return ctx


class TestMatching:
    def test_first_access_no_prefetch(self):
        ampm = AMPM()
        ctx = make_ctx(100)
        ampm.on_access(ctx)
        assert not ctx.requests

    def test_unit_stride_detected(self):
        ampm = AMPM()
        ctx = feed(ampm, [0, 1, 2])
        assert ctx.requests
        assert ctx.requests[0][0] == 3

    def test_longer_stride_detected(self):
        ampm = AMPM()
        ctx = feed(ampm, [0, 4, 8])
        assert any(block == 12 for block, _, _ in ctx.requests)

    def test_backward_stream_detected(self):
        ampm = AMPM()
        ctx = feed(ampm, [40, 39, 38])
        assert any(block == 37 for block, _, _ in ctx.requests)

    def test_stride_beyond_max_not_detected(self):
        ampm = AMPM()
        wide = AMPM.MAX_STRIDE + 4
        ctx = feed(ampm, [0, wide, 2 * wide])
        assert not ctx.requests

    def test_degree_capped(self):
        ampm = AMPM()
        # Dense map: many strides match simultaneously.
        ctx = feed(ampm, list(range(0, 30)))
        assert len(ctx.requests) <= AMPM.DEGREE

    def test_requires_two_backward_probes(self):
        ampm = AMPM()
        # Only one prior access at the right distance: no match.
        ctx = feed(ampm, [5, 8])   # 8-3=5 set, but 8-6=2 unset
        assert not ctx.requests

    def test_boundary_respected(self):
        ampm = AMPM()
        ctx = feed(ampm, [BLOCKS_PER_4K - 3, BLOCKS_PER_4K - 2,
                          BLOCKS_PER_4K - 1])
        assert not ctx.requests   # +1 crosses the page

    def test_crossing_with_2m_window(self):
        ampm = AMPM()
        ctx = feed(ampm, [BLOCKS_PER_4K - 3, BLOCKS_PER_4K - 2,
                          BLOCKS_PER_4K - 1], window="2m")
        assert any(block == BLOCKS_PER_4K for block, _, _ in ctx.requests)


class TestStructure:
    def test_map_table_bounded(self):
        ampm = AMPM()
        for region in range(AMPM.MAP_ENTRIES * 2):
            feed(ampm, [region * BLOCKS_PER_4K])
        assert len(ampm.maps) <= ampm.maps.capacity

    def test_map_accumulates(self):
        ampm = AMPM()
        feed(ampm, [0, 5, 9])
        bitmap = ampm.maps.get(0)
        assert bitmap == (1 << 0) | (1 << 5) | (1 << 9)

    def test_2mb_region_storage_larger(self):
        assert AMPM(region_bits=21).storage_bits() > AMPM().storage_bits()
