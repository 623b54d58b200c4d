"""Tests for repro.prefetch.spp — Signature Path Prefetcher."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.address import BLOCKS_PER_4K
from repro.prefetch.spp import SIG_MASK, SPP, PatternEntry, next_signature

from conftest import make_ctx


def train_stream(spp, base_block, count, stride=1, window="4k"):
    """Feed a strided stream; return the context of the last access."""
    ctx = None
    for i in range(count):
        ctx = make_ctx(base_block + i * stride, window=window)
        spp.on_access(ctx)
    return ctx


class TestSignature:
    def test_next_signature_masks(self):
        assert next_signature(SIG_MASK, 1) <= SIG_MASK

    def test_signature_depends_on_delta(self):
        assert next_signature(0x10, 1) != next_signature(0x10, 2)

    def test_negative_delta_distinct(self):
        assert next_signature(0x10, -1) != next_signature(0x10, 1)


class TestPatternEntry:
    def test_best_empty(self):
        assert PatternEntry(0).best() is None

    def test_confidence_ratio(self):
        entry = PatternEntry(0)
        for _ in range(3):
            entry.train(1)
        entry.train(2)
        delta, conf = entry.best()
        assert delta == 1
        assert conf == pytest.approx(0.75)

    def test_way_replacement(self):
        entry = PatternEntry(0)
        for delta in (1, 2, 3, 4):
            entry.train(delta)
            entry.train(delta)
        entry.train(5)   # evicts the least confident way
        assert len(entry.deltas) == PatternEntry.MAX_WAYS

    def test_counter_cap_halves(self):
        entry = PatternEntry(0)
        for _ in range(PatternEntry.COUNT_CAP + 10):
            entry.train(1)
        assert entry.total < PatternEntry.COUNT_CAP
        assert entry.best()[1] > 0.9


_deltas = st.integers(-8, 8).filter(bool)


@given(st.integers(0, SIG_MASK), st.lists(_deltas, max_size=40),
       st.lists(_deltas, min_size=1, max_size=4), st.integers(0, 200))
def test_property_top_is_best_and_its_signature(sig, prefix, pattern, reps):
    """``top`` is what the lookahead reads instead of ``best()``: after
    every ``train`` — through way replacement (16 deltas compete for 4
    ways) and the ``COUNT_CAP`` halving (up to 840 trains) — it must be
    ``best()`` plus the signature its delta leads to."""
    entry = PatternEntry(sig)
    for delta in prefix + pattern * reps:
        entry.train(delta)
        best = entry.best()
        assert entry.top == (*best, next_signature(sig, best[0]))


class TestTraining:
    def test_first_touch_no_prefetch(self):
        spp = SPP()
        ctx = make_ctx(100)
        spp.on_access(ctx)
        assert not ctx.requests

    def test_stream_learned_and_prefetched(self):
        spp = SPP()
        ctx = train_stream(spp, base_block=0, count=20)
        assert ctx.requests
        # Next-block stream: candidates are ahead of the trigger.
        assert all(block > ctx.block for block, _, _ in ctx.requests)

    def test_zero_delta_ignored(self):
        spp = SPP()
        train_stream(spp, 0, 10)
        ctx = make_ctx(9)
        spp.on_access(ctx)       # same block again: delta 0
        ctx2 = make_ctx(9)
        spp.on_access(ctx2)
        assert all(block != 9 for block, _, _ in ctx2.requests)

    def test_stride_pattern_learned(self):
        spp = SPP()
        ctx = train_stream(spp, base_block=0, count=15, stride=3)
        assert ctx.requests
        assert (ctx.requests[0][0] - ctx.block) % 3 == 0

    def test_lookahead_depth_bounded(self):
        spp = SPP()
        ctx = train_stream(spp, 0, 30)
        assert len(ctx.requests) <= SPP.MAX_DEPTH

    def test_lookahead_stops_at_boundary(self):
        """Original-window SPP stops its path at the 4KB page edge."""
        spp = SPP()
        ctx = train_stream(spp, 0, BLOCKS_PER_4K - 2)   # near page end
        for target, _, _ in ctx.requests:
            assert target < BLOCKS_PER_4K

    def test_lookahead_crosses_with_2m_window(self):
        spp = SPP()
        # Train to very high confidence, end near the page boundary.
        ctx = train_stream(spp, 0, BLOCKS_PER_4K - 2, window="2m")
        crossing = [r for r in ctx.requests if r[0] >= BLOCKS_PER_4K]
        assert crossing, "high-confidence path should cross into next page"

    def test_fill_level_follows_confidence(self):
        spp = SPP()
        ctx = train_stream(spp, 0, 40)
        # The first (depth-1) prefetch has the highest path confidence.
        assert ctx.requests[0][1]

    def test_region_granularity_2mb_learns_wide_strides(self):
        """The PSA-2MB property: >64-block deltas are learnable only with
        2MB regions (paper Section III-C)."""
        wide = 96
        spp_4k = SPP(region_bits=12)
        spp_2m = SPP(region_bits=21)
        ctx4 = train_stream(spp_4k, 0, 30, stride=wide, window="2m")
        ctx2 = train_stream(spp_2m, 0, 30, stride=wide, window="2m")
        assert not ctx4.requests     # one access per 4KB page: no deltas
        assert ctx2.requests
        assert ctx2.requests[0][0] - ctx2.block == wide


class TestTables:
    def test_signature_table_bounded(self):
        spp = SPP()
        for region in range(SPP.ST_ENTRIES + 50):
            spp.on_access(make_ctx(region * BLOCKS_PER_4K))
        assert len(spp.signature_table) <= SPP.ST_ENTRIES

    def test_table_scale(self):
        half = SPP(table_scale=0.5)
        assert half.signature_table.capacity == SPP.ST_ENTRIES // 2
        assert half.pattern_table.capacity == SPP.PT_ENTRIES // 2

    def test_storage_bits_positive_and_scales(self):
        assert SPP(table_scale=2.0).storage_bits() > SPP().storage_bits() > 0


class TestGHR:
    """The Global History Register: cross-region learning continuity."""

    def test_boundary_crossing_parks_path(self):
        spp = SPP()
        train_stream(spp, 0, BLOCKS_PER_4K - 1)   # reaches the page edge
        assert spp.ghr, "crossing path should be parked in the GHR"

    def test_fresh_region_seeded_from_ghr(self):
        spp = SPP()
        train_stream(spp, 0, BLOCKS_PER_4K - 1)
        # The stream enters the next page at offset 0 (the parked
        # projection): the fresh region resumes with prefetches instead of
        # a cold two-access warmup.
        ctx = make_ctx(BLOCKS_PER_4K, window="4k")
        spp.on_access(ctx)
        assert spp.ghr_seeds == 1
        assert ctx.requests, "GHR seed should resume prefetching immediately"

    def test_mismatched_entry_offset_stays_cold(self):
        spp = SPP()
        train_stream(spp, 0, BLOCKS_PER_4K - 1)
        ctx = make_ctx(BLOCKS_PER_4K + 7, window="4k")   # wrong entry point
        spp.on_access(ctx)
        assert spp.ghr_seeds == 0
        assert not ctx.requests

    def test_ghr_capacity_bounded(self):
        spp = SPP()
        for i in range(SPP.GHR_ENTRIES * 3):
            train_stream(spp, i * BLOCKS_PER_4K * 4, BLOCKS_PER_4K - 1)
        assert len(spp.ghr) <= SPP.GHR_ENTRIES

    def test_ghr_disabled(self):
        spp = SPP(use_ghr=False)
        train_stream(spp, 0, BLOCKS_PER_4K - 1)
        assert not spp.ghr
        ctx = make_ctx(BLOCKS_PER_4K, window="4k")
        spp.on_access(ctx)
        assert not ctx.requests

    def test_ghr_improves_original_spp_continuity(self):
        """With the GHR, original SPP covers page-entry blocks that a
        GHR-less SPP misses — exactly why omitting it would overstate the
        PSA gains."""
        def issued_in_page_two(spp):
            issued = []
            for i in range(2 * BLOCKS_PER_4K):
                ctx = make_ctx(i, window="4k")
                spp.on_access(ctx)
                issued.extend(block for block, _, _ in ctx.requests)
            return {b for b in issued
                    if BLOCKS_PER_4K <= b < BLOCKS_PER_4K + 8}

        early_with = issued_in_page_two(SPP(use_ghr=True))
        early_without = issued_in_page_two(SPP(use_ghr=False))
        assert len(early_with) > len(early_without)
