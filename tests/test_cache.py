"""Tests for repro.memory.cache — set-associative cache structure."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.address import (
    PAGE_2M_BITS,
    PAGE_4K_BITS,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.memory.cache import NO_ISSUER, Cache
from repro.sim.config import CacheConfig, TLBConfig
from repro.vm.page_table import LEVEL_SHIFTS
from repro.vm.tlb import TLB
from repro.vm.walker import MMUCache


def small_cache(sets=4, ways=2, mshr=4):
    config = CacheConfig("T", sets * ways * 64, ways, 10, mshr)
    return Cache(config)


def one_set(ways):
    """A one-set cache: every block competes for the same ways."""
    return Cache(CacheConfig("T", ways * 64, ways, 1, 4))


def fill_all(cache, blocks):
    for block in blocks:
        assert cache.fill(block) is None


class TestGeometry:
    def test_set_count(self):
        cache = small_cache(sets=8, ways=2)
        assert cache.num_sets == 8

    def test_set_index_uses_low_block_bits(self):
        cache = small_cache(sets=8)
        assert cache.set_index(0) == 0
        assert cache.set_index(9) == 1
        assert cache.set_index(16) == 0

    def test_invalid_geometry_rejected(self):
        config = CacheConfig("bad", 1000, 3, 1, 1)
        with pytest.raises(ValueError):
            Cache(config)


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(5) is None
        cache.fill(5)
        assert cache.lookup(5) is not None

    def test_contains_no_lru_disturbance(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(4)           # same set (sets=1)
        assert cache.contains(0)
        cache.fill(8)           # evicts LRU: block 0 (contains didn't touch)
        assert not cache.contains(0)

    def test_eviction_returns_victim_line(self):
        cache = small_cache(sets=1, ways=1)
        cache.fill(0, dirty=True)
        evicted = cache.fill(1)
        assert evicted is not None
        victim_block, line = evicted
        assert victim_block == 0
        assert line.dirty

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.lookup(0)         # refresh 0
        evicted = cache.fill(2)
        assert evicted[0] == 1

    def test_refill_merges_dirty(self):
        cache = small_cache()
        cache.fill(3)
        assert cache.fill(3, dirty=True) is None
        assert cache.lookup(3).dirty

    def test_demand_fill_clears_prefetch_bit(self):
        cache = small_cache()
        cache.fill(3, prefetch=True)
        cache.fill(3)                      # demand fill racing the prefetch
        assert not cache.lookup(3).prefetch

    def test_prefetch_refill_keeps_prefetch_bit(self):
        cache = small_cache()
        cache.fill(3, prefetch=True)
        cache.fill(3, prefetch=True)
        assert cache.lookup(3).prefetch

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(5)
        assert cache.invalidate(5)
        assert cache.lookup(5) is None
        assert not cache.invalidate(5)

    def test_mark_dirty(self):
        cache = small_cache()
        cache.fill(5)
        cache.mark_dirty(5)
        assert cache.lookup(5).dirty

    def test_writeback_counter(self):
        cache = small_cache(sets=1, ways=1)
        cache.fill(0, dirty=True)
        cache.fill(1)
        assert cache.writebacks == 1


class TestAnnotation:
    """The Set-Dueling annotation bit lives on each line (Section IV-B2)."""

    def test_issuer_recorded(self):
        cache = small_cache()
        cache.fill(2, prefetch=True, issuer=1)
        assert cache.lookup(2).issuer == 1

    def test_default_no_issuer(self):
        cache = small_cache()
        cache.fill(2)
        assert cache.lookup(2).issuer == NO_ISSUER


class TestDemandAccounting:
    def test_hit_and_miss_counts(self):
        cache = small_cache()
        cache.record_demand(False, None)
        cache.fill(1)
        line = cache.lookup(1)
        cache.record_demand(True, line)
        assert cache.demand_accesses == 2
        assert cache.demand_hits == 1
        assert cache.demand_misses == 1

    def test_useful_prefetch_returns_issuer_once(self):
        cache = small_cache()
        cache.fill(1, prefetch=True, issuer=1)
        line = cache.lookup(1)
        assert cache.record_demand(True, line) == 1
        assert cache.useful_prefetches == 1
        # Second hit: bit already cleared, not useful again.
        assert cache.record_demand(True, line) is None
        assert cache.useful_prefetches == 1

    def test_prefetch_fill_counter(self):
        cache = small_cache()
        cache.fill(1, prefetch=True)
        cache.fill(2)
        assert cache.prefetch_fills == 1

    def test_reset_stats(self):
        cache = small_cache()
        cache.fill(1, prefetch=True)
        cache.record_demand(False, None)
        cache.reset_stats()
        assert cache.demand_accesses == 0
        assert cache.prefetch_fills == 0


class TestOccupancy:
    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(sets=4, ways=2)
        for block in range(100):
            cache.fill(block)
        assert cache.occupancy() <= 8

    def test_resident_blocks_match_contains(self):
        cache = small_cache()
        for block in (1, 9, 17):
            cache.fill(block)
        for block in cache.resident_blocks():
            assert cache.contains(block)


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
def test_property_set_capacity_never_exceeded(blocks):
    cache = small_cache(sets=4, ways=2)
    for block in blocks:
        cache.fill(block)
    for cache_set in cache._sets:
        assert len(cache_set) <= cache.ways


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
def test_property_most_recent_fill_resident(blocks):
    cache = small_cache(sets=4, ways=2)
    for block in blocks:
        cache.fill(block)
        assert cache.contains(block)


class TestLRU:
    """LRU order is the set dict's own order."""

    def test_victim_is_least_recent_fill(self):
        lru = one_set(3)
        fill_all(lru, (1, 2, 3))
        assert lru.fill(4)[0] == 1

    def test_hit_refreshes_recency(self):
        lru = one_set(3)
        fill_all(lru, (1, 2, 3))
        lru.lookup(1)
        assert lru.fill(4)[0] == 2

    def test_evict_removes_tag(self):
        lru = one_set(2)
        fill_all(lru, (1, 2))
        assert lru.invalidate(1)
        fill_all(lru, (3,))
        assert lru.fill(4)[0] == 2

    def test_evict_unknown_tag_is_noop(self):
        lru = one_set(2)
        fill_all(lru, (1,))
        assert not lru.invalidate(99)
        fill_all(lru, (2,))
        assert lru.fill(3)[0] == 1

    def test_refill_refreshes(self):
        lru = one_set(2)
        fill_all(lru, (1, 2))
        lru.invalidate(1)
        fill_all(lru, (1,))          # back at the most-recent end
        assert lru.fill(3)[0] == 2


class _StampSet:
    """Reference model of one LRU set: every fill, and every hit, stamps
    its key with the next clock value; the victim has the smallest stamp.
    Filling a resident key restamps it where ``refill_touches`` is set
    (TLBs, the MMU cache); a cache refill only merges metadata."""

    def __init__(self, ways, refill_touches=False):
        self.ways = ways
        self.refill_touches = refill_touches
        self.stamps = {}
        self.clock = 0

    def _stamp(self, key):
        self.clock += 1
        self.stamps[key] = self.clock

    def lookup(self, key):
        if key in self.stamps:
            self._stamp(key)

    def fill(self, key):
        if key in self.stamps:
            if self.refill_touches:
                self._stamp(key)
            return None
        victim = None
        if len(self.stamps) >= self.ways:
            victim = min(self.stamps, key=self.stamps.__getitem__)
            del self.stamps[victim]
        self._stamp(key)
        return victim

    def invalidate(self, key):
        return self.stamps.pop(key, None) is not None

    def order(self):
        """Keys from least to most recently stamped."""
        return sorted(self.stamps, key=self.stamps.__getitem__)


def _first_present(sets, num_sets, keys):
    """The first of *keys* a model holds, probing in order, or None."""
    for key in keys:
        if key in sets[key[1] % num_sets].stamps:
            return key
    return None


# Four keys per set of two-set, three-way structures (eight keys over
# the six-entry MMU cache), mostly fills and hits, and long runs: sets
# stay full and hits land on every position.
_cache_ops = st.lists(st.tuples(
    st.sampled_from(["lookup", "lookup", "fill", "fill", "peek",
                     "invalidate"]),
    st.integers(0, 7)), min_size=40, max_size=200)


@given(_cache_ops)
def test_property_set_order_matches_timestamp_model(ops):
    """Each op drives an LRU cache, a TLB and an MMU cache; after every
    op each set's dict order is its model's stamp order.

    Key *n* is cache block *n*; TLB key 4KB page *n* for n < 4, else 2MB
    page n - 4 (which covers the 4KB pages at 2MB page 0); MMU key
    page-directory entry *n* for n < 4, else PDPT entry n - 4.  A TLB
    has no invalidate and the MMU cache no peek: those ops skip them.
    """
    sets, ways = 2, 3
    cache = Cache(CacheConfig("T", sets * ways * 64, ways, 1, 4))
    cache_model = [_StampSet(ways) for _ in range(sets)]
    tlb = TLB(TLBConfig("T", sets * ways, ways, 1, 4))
    tlb_model = [_StampSet(ways, refill_touches=True) for _ in range(sets)]
    mmu = MMUCache(6)
    mmu_model = _StampSet(6, refill_touches=True)
    for op, n in ops:
        # --- cache ---------------------------------------------------------
        cache_set = cache_model[n % sets]
        if op == "lookup":
            hit = cache.lookup(n) is not None
            assert hit == (n in cache_set.stamps)
            cache_set.lookup(n)
        elif op == "peek":
            assert (cache.lookup(n, update_lru=False) is not None) == (
                n in cache_set.stamps)
        elif op == "fill":
            evicted = cache.fill(n)
            victim = None if evicted is None else evicted[0]
            assert victim == cache_set.fill(n)
        else:
            assert cache.invalidate(n) == cache_set.invalidate(n)
        # --- TLB -----------------------------------------------------------
        if n < 4:
            vaddr, key = n << PAGE_4K_BITS, (PAGE_SIZE_4K, n)
        else:
            vaddr, key = (n - 4) << PAGE_2M_BITS, (PAGE_SIZE_2M, n - 4)
        present = _first_present(tlb_model, sets, (
            (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS),
            (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)))
        if op == "lookup":
            assert tlb.lookup(vaddr) == (None if present is None
                                         else present[0])
            if present is not None:
                tlb_model[present[1] % sets].lookup(present)
        elif op == "peek":
            assert tlb.contains(vaddr) == (present is not None)
        elif op == "fill":
            tlb.fill(vaddr, key[0])
            tlb_model[key[1] % sets].fill(key)
        # --- MMU cache -----------------------------------------------------
        key = (2, n) if n < 4 else (1, n - 4)
        vaddr = key[1] << LEVEL_SHIFTS[key[0]]
        if op == "lookup":
            present = _first_present([mmu_model], 1, [
                (lvl, vaddr >> LEVEL_SHIFTS[lvl]) for lvl in (2, 1, 0)])
            assert mmu.deepest_cached_level(vaddr, 3) == (
                0 if present is None else present[0] + 1)
            if present is not None:
                mmu_model.lookup(present)
        elif op == "fill":
            mmu.fill(vaddr, key[0])
            mmu_model.fill(key)
        assert [list(s) for s in cache._sets] == [
            m.order() for m in cache_model]
        assert [list(s) for s in tlb._sets] == [m.order() for m in tlb_model]
        assert list(mmu.table) == mmu_model.order()
