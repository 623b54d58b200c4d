"""Tests for PrefetchContext.emit — window clamping and Fig. 2 accounting."""

from repro.memory.address import BLOCKS_PER_2M, BLOCKS_PER_4K, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.prefetch.base import BoundaryStats

from conftest import make_ctx


class TestEmitAcceptance:
    def test_in_window_accepted(self):
        ctx = make_ctx(block=10, window="4k")
        assert ctx.emit(11)
        assert len(ctx.requests) == 1
        assert ctx.requests[0][0] == 11

    def test_out_of_window_rejected(self):
        ctx = make_ctx(block=10, window="4k")
        assert not ctx.emit(BLOCKS_PER_4K + 1)
        assert not ctx.requests

    def test_negative_direction_clamped(self):
        ctx = make_ctx(block=BLOCKS_PER_4K + 2, window="4k")
        assert ctx.emit(BLOCKS_PER_4K)       # offset 0 of the same page
        assert not ctx.emit(BLOCKS_PER_4K - 1)   # previous page

    def test_2m_window_allows_4k_crossing(self):
        ctx = make_ctx(block=60, window="2m")
        assert ctx.emit(70)     # next 4KB page, same 2MB page

    def test_2m_window_stops_at_2m_boundary(self):
        ctx = make_ctx(block=BLOCKS_PER_2M - 2, window="2m")
        assert not ctx.emit(BLOCKS_PER_2M)

    def test_fill_level_recorded(self):
        ctx = make_ctx(block=0, window="4k")
        ctx.emit(1, fill_l2=True)
        ctx.emit(2, fill_l2=False)
        assert ctx.requests[0][1]
        assert not ctx.requests[1][1]

    def test_issuer_propagated(self):
        ctx = make_ctx(block=0, window="4k")
        ctx.issuer = 1
        ctx.emit(1)
        assert ctx.requests[0][2] == 1


class TestFig2Accounting:
    def test_cross_4k_in_2m_counted(self):
        """The missed opportunity the paper's Fig. 2 quantifies."""
        stats = BoundaryStats()
        ctx = make_ctx(block=60, window="4k",
                       true_page_size=PAGE_SIZE_2M, stats=stats)
        ctx.emit(70)        # crosses 4KB but stays in the 2MB page
        assert stats.discarded_cross_4k_in_2m == 1
        assert stats.discard_probability_in_2m() == 1.0

    def test_cross_4k_in_4k_counted_separately(self):
        stats = BoundaryStats()
        ctx = make_ctx(block=60, window="4k",
                       true_page_size=PAGE_SIZE_4K, stats=stats)
        ctx.emit(70)
        assert stats.discarded_cross_4k_in_4k == 1
        assert stats.discarded_cross_4k_in_2m == 0

    def test_beyond_2m_counted(self):
        stats = BoundaryStats()
        ctx = make_ctx(block=BLOCKS_PER_2M - 1, window="4k",
                       true_page_size=PAGE_SIZE_2M, stats=stats)
        ctx.emit(BLOCKS_PER_2M + 5)
        assert stats.discarded_beyond_2m == 1
        assert stats.discarded_cross_4k_in_2m == 0

    def test_proposed_counts_everything(self):
        stats = BoundaryStats()
        ctx = make_ctx(block=0, window="4k", stats=stats)
        ctx.emit(1)
        ctx.emit(BLOCKS_PER_4K + 1)
        assert stats.proposed == 2
        assert stats.issued == 1
        assert stats.discarded == 1

    def test_merge(self):
        a = BoundaryStats()
        a.proposed = 10
        a.discarded_cross_4k_in_2m = 2
        b = BoundaryStats()
        b.proposed = 5
        b.issued = 3
        a.merge(b)
        assert a.proposed == 15
        assert a.issued == 3
        assert a.discarded_cross_4k_in_2m == 2

    def test_probability_zero_without_proposals(self):
        assert BoundaryStats().discard_probability_in_2m() == 0.0
