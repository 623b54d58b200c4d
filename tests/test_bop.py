"""Tests for repro.prefetch.bop — Best-Offset prefetcher and next-line."""

from repro.prefetch.bop import BOP, NextLinePrefetcher, _candidate_offsets

from conftest import make_ctx


class TestOffsetList:
    def test_only_235_smooth(self):
        for offset in _candidate_offsets():
            n = offset
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            assert n == 1

    def test_contains_key_offsets(self):
        offsets = _candidate_offsets()
        for expected in (1, 2, 3, 4, 96, 128, 256):
            assert expected in offsets

    def test_excludes_non_smooth(self):
        offsets = _candidate_offsets()
        for bad in (7, 11, 13, 14, 77):
            assert bad not in offsets


class TestLearning:
    def test_learns_stride_offset(self):
        bop = BOP()
        block = 0
        # A long stride-4 stream: offset 4 accumulates score via RR hits.
        for _ in range(3000):
            bop.on_access(make_ctx(block, window="open"))
            block += 4
        assert bop.best_offset == 4

    def test_prefetch_uses_best_offset(self):
        bop = BOP()
        block = 0
        for _ in range(3000):
            bop.on_access(make_ctx(block, window="open"))
            block += 4
        ctx = make_ctx(block, window="open")
        bop.on_access(ctx)
        assert ctx.requests
        assert ctx.requests[0][0] == block + 4

    def test_round_ends_on_score_max(self):
        bop = BOP()
        block = 0
        for _ in range(5000):
            bop.on_access(make_ctx(block, window="open"))
            block += 1
        assert bop.offset_selections   # at least one round completed

    def test_random_stream_disables_prefetch(self):
        import random
        rng = random.Random(1)
        bop = BOP()
        for _ in range(len(BOP.OFFSETS) * BOP.ROUND_MAX + 10):
            bop.on_access(make_ctx(rng.randrange(1 << 30), window="open"))
        # After a full fruitless round, prefetching turns off.
        assert not bop.prefetch_enabled

    def test_boundary_respected(self):
        bop = BOP()
        block = 0
        for _ in range(3000):
            bop.on_access(make_ctx(block, window="open"))
            block += 1
        ctx = make_ctx(63, window="4k")   # last block of a page
        bop.on_access(ctx)
        assert not ctx.requests           # +1 would cross


class TestPageSizeIndependence:
    def test_region_bits_changes_nothing(self):
        """BOP has no page-indexed structure: PSA-2MB degenerates to PSA
        (paper Section VI-B1)."""
        trace = list(range(0, 2000, 2))
        results = []
        for region_bits in (12, 21):
            bop = BOP(region_bits=region_bits)
            issued = []
            for block in trace:
                ctx = make_ctx(block, window="open")
                bop.on_access(ctx)
                issued.extend(block for block, _, _ in ctx.requests)
            results.append((bop.best_offset, issued))
        assert results[0] == results[1]


class TestNextLine:
    def test_emits_next_block(self):
        nl = NextLinePrefetcher()
        ctx = make_ctx(10, window="4k")
        nl.on_access(ctx)
        assert [block for block, _, _ in ctx.requests] == [11]

    def test_respects_boundary(self):
        nl = NextLinePrefetcher()
        ctx = make_ctx(63, window="4k")
        nl.on_access(ctx)
        assert not ctx.requests

    def test_zero_storage(self):
        assert NextLinePrefetcher().storage_bits() == 0
