"""The full memory hierarchy: TLBs/PTW + L1D + L2C + LLC + DRAM + PPM.

Timing model
------------
Functional-latency with MSHR-limited concurrency: every access computes the
cycle its data becomes available, walking down the levels and adding each
level's latency; DRAM adds row-buffer- and bandwidth-dependent delay.  An
access to a block already in flight merges with the MSHR entry; a full MSHR
stalls the requester until an entry frees.  The OOO core model on top
converts these ready-cycles into IPC through ROB occupancy.

This is where PPM is wired in (Section IV-A of the paper):

1. an L1D miss knows its page size from the translation metadata (the L1D
   is VIPT, translation happens in parallel with the L1 access);
2. PPM writes the page-size bit into the allocated L1D MSHR entry;
3. the L2C prefetcher is engaged on L2C demand accesses — i.e. L1D misses —
   and receives the bit with the request stream.

Dirty evictions write back to the next level; LLC dirty evictions consume
DRAM write bandwidth.  Page-walk reads travel through L2C/LLC/DRAM (but do
not train the prefetcher), so walk latency responds to cache pressure and
2MB pages genuinely shorten walks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.ppm import PageSizePropagationModule
from repro.core.psa import L2PrefetchModule
from repro.memory.address import (
    BLOCKS_PER_1G,
    BLOCKS_PER_2M,
    BLOCKS_PER_4K,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
)
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.prefetch.base import L1DPrefetcher, PrefetchRequest
from repro.sim.config import SystemConfig
from repro.verify import invariants
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.vm.page_table import PageTable
from repro.vm.walker import AddressTranslator


class MemoryHierarchy:
    """One core's private hierarchy, optionally sharing LLC and DRAM."""

    def __init__(self, config: SystemConfig,
                 allocator: PhysicalMemoryAllocator,
                 l2_module: Optional[L2PrefetchModule] = None,
                 llc_module: Optional[L2PrefetchModule] = None,
                 l1d_prefetcher: Optional[L1DPrefetcher] = None,
                 oracle_page_size: bool = False,
                 shared_llc: Optional[Cache] = None,
                 shared_dram: Optional[DRAM] = None,
                 page_table: Optional[PageTable] = None) -> None:
        config.validate()
        self.config = config
        self.allocator = allocator
        self.l1d = Cache(config.l1d)
        self.l2c = Cache(config.l2c)
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)
        self.dram = shared_dram if shared_dram is not None else DRAM(config.dram)
        self.translator = AddressTranslator(config, allocator, page_table)
        self.ppm = PageSizePropagationModule(
            enabled=config.ppm_enabled,
            num_page_sizes=config.num_page_sizes)
        self.l2_module = l2_module if l2_module is not None else L2PrefetchModule()
        #: Optional LLC prefetcher (Section IV-A "Applicability on LLC
        #: Prefetching").  It is engaged on LLC demand accesses (L2C
        #: misses); its page-size information arrives via the L2C MSHR
        #: when ``config.ppm_to_llc`` is set.
        self.llc_module = llc_module
        self.l1d_prefetcher = l1d_prefetcher
        #: "Magic" page-size oracle (Figs. 4/5): the prefetcher knows the
        #: page size even without PPM.  With PPM enabled this is equivalent
        #: by construction (the simulated PPM bit is always correct).
        self.oracle_page_size = oracle_page_size
        #: Optional semantic-event observer (see ``repro.verify.oracle``).
        #: When set, the hierarchy narrates every functional decision —
        #: translations, per-level demand outcomes, fills with their
        #: victims, prefetch issues, walk reads — so a reference model can
        #: replay and diff them.  None costs one branch per site.
        self.observer = None
        self._check = invariants.enabled()
        # --- statistics -------------------------------------------------
        self.loads = 0
        self.stores = 0
        self.load_latency_sum = 0.0
        self.l2_demand_latency_sum = 0.0
        self.l2_demand_latency_count = 0
        self.llc_demand_latency_sum = 0.0
        self.llc_demand_latency_count = 0
        self.pf_issued_l2 = 0       # prefetches targeted at the L2C
        self.pf_issued_llc = 0      # prefetches targeted at the LLC
        self.pf_dropped_mshr = 0    # dropped because an MSHR was full
        self.pf_redundant = 0       # target already cached or in flight
        self.l1_pf_issued = 0
        self.walk_reads = 0

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def load(self, vaddr: int, ip: int, now: float) -> float:
        """Demand load; returns the cycle the data is available."""
        self.loads += 1
        ready = self._access(vaddr, ip, now, is_write=False)
        self.load_latency_sum += ready - now
        return ready

    def store(self, vaddr: int, ip: int, now: float) -> float:
        """Demand store (write-allocate, posted; caller may ignore timing)."""
        self.stores += 1
        return self._access(vaddr, ip, now, is_write=True)

    def _access(self, vaddr: int, ip: int, now: float,
                is_write: bool) -> float:
        obs = self.observer
        if obs is not None:
            obs.on_access_begin(vaddr, is_write)
        paddr, translate_latency, page_size = self.translator.translate(
            vaddr, now, self._walk_access)
        if obs is not None:
            obs.on_translate(vaddr, paddr, page_size)
        t = now + translate_latency
        block = paddr >> 6
        line = self.l1d.lookup(block)
        hit = line is not None
        self.l1d.record_demand(hit, line)
        # Emitted at lookup time, before any L1 prefetch can fill this set:
        # the observer's mirror must see the same state the lookup saw.
        if obs is not None:
            obs.on_l1_demand(block, hit, is_write)
        if self.l1d_prefetcher is not None and not is_write:
            for pf_vaddr in self.l1d_prefetcher.on_access(vaddr, ip, hit):
                self._issue_l1_prefetch(pf_vaddr, t)
        if hit:
            if is_write:
                line.dirty = True
            ready = t + self.l1d.latency
            pending = self.l1d.inflight_lookup(block, t)
            if pending is not None and pending[0] > ready:
                # The line was filled by a still-in-flight (pre)fetch: the
                # demand waits for the remaining latency (late prefetch).
                ready = pending[0]
            return ready
        inflight = self.l1d.inflight_lookup(block, t)
        if inflight is not None:
            ready = inflight[0]
            if is_write:
                if obs is not None:
                    obs.on_mark_dirty("l1d", block)
                self.l1d.mark_dirty(block)
            return max(ready, t + self.l1d.latency)
        t = self.l1d.mshr.stall_until_free(t)
        ready = self._l2_demand(block, ip, t + self.l1d.latency,
                                page_size_bit_source=page_size)
        # PPM: the page-size bit rides in the L1D MSHR entry.
        self.ppm.annotate_l1d_miss(self.l1d.mshr, block, ready, page_size)
        self._fill_l1(block, dirty=is_write)
        return ready

    # ------------------------------------------------------------------
    def _l2_demand(self, block: int, ip: int, t: float,
                   page_size_bit_source: int) -> float:
        """Demand access at the L2C; engages the L2C prefetcher."""
        true_page_size = page_size_bit_source
        if self.oracle_page_size:
            page_size_bit: Optional[int] = true_page_size
        else:
            page_size_bit = self.ppm.page_size_for_l2(true_page_size)
        obs = self.observer
        line = self.l2c.lookup(block)
        hit = line is not None
        useful_issuer = self.l2c.record_demand(hit, line)
        if useful_issuer is not None:
            self.l2_module.on_useful(block, useful_issuer)
        set_index = self.l2c.set_index(block)
        requests = self.l2_module.on_l2_access(
            block, ip, set_index, page_size_bit, true_page_size)
        if hit:
            if obs is not None:
                obs.on_l2_demand(block, True, False, page_size_bit,
                                 useful_issuer)
            ready = t + self.l2c.latency
            pending = self.l2c.inflight_lookup(block, t)
            if pending is not None and pending[0] > ready:
                ready = pending[0]   # late prefetch: partial latency saving
        else:
            self.l2_module.on_demand_miss(block)
            inflight = self.l2c.inflight_lookup(block, t)
            if inflight is not None:
                if obs is not None:
                    obs.on_l2_demand(block, False, True, page_size_bit,
                                     useful_issuer)
                ready = max(inflight[0], t + self.l2c.latency)
            else:
                if obs is not None:
                    obs.on_l2_demand(block, False, False, page_size_bit,
                                     useful_issuer)
                t_alloc = self.l2c.mshr.stall_until_free(t)
                bit = page_size_bit if self.config.ppm_to_llc else None
                ready = self._llc_demand(block, t_alloc + self.l2c.latency,
                                         ip=ip, page_size_bit=bit,
                                         true_page_size=true_page_size)
                self.l2c.mshr.insert(block, ready,
                                     page_size=0 if bit is None else bit)
                self._fill_l2(block)
        self.l2_demand_latency_sum += ready - t
        self.l2_demand_latency_count += 1
        # Issue the prefetches the module produced for this access.
        for request in requests:
            self._issue_l2_prefetch(request, t, trigger_block=block,
                                    page_size_bit=page_size_bit)
        return ready

    def _llc_demand(self, block: int, t: float,
                    count_demand: bool = True, ip: int = 0,
                    page_size_bit: Optional[int] = None,
                    true_page_size: int = 0) -> float:
        obs = self.observer
        line = self.llc.lookup(block)
        hit = line is not None
        llc_requests = []
        useful_issuer = None
        if count_demand:
            # Page-walk reads reuse this path but are not demand traffic:
            # they must not perturb coverage/accuracy accounting.
            useful_issuer = self.llc.record_demand(hit, line)
            if useful_issuer is not None:
                self.l2_module.on_useful(block, useful_issuer)
            if self.llc_module is not None:
                llc_requests = self.llc_module.on_l2_access(
                    block, ip, self.llc.set_index(block), page_size_bit,
                    true_page_size)
        if hit:
            if obs is not None:
                obs.on_llc_demand(block, True, False, count_demand,
                                  useful_issuer)
            ready = t + self.llc.latency
            pending = self.llc.inflight_lookup(block, t)
            if pending is not None and pending[0] > ready:
                ready = pending[0]   # late prefetch: partial latency saving
        else:
            inflight = self.llc.inflight_lookup(block, t)
            if inflight is not None:
                if obs is not None:
                    obs.on_llc_demand(block, False, True, count_demand,
                                      useful_issuer)
                ready = max(inflight[0], t + self.llc.latency)
            else:
                if obs is not None:
                    obs.on_llc_demand(block, False, False, count_demand,
                                      useful_issuer)
                t_alloc = self.llc.mshr.stall_until_free(t)
                ready = self.dram.access(block, t_alloc + self.llc.latency)
                self.llc.mshr.insert(block, ready)
                self._fill_llc(block)
        if count_demand:
            self.llc_demand_latency_sum += ready - t
            self.llc_demand_latency_count += 1
            for request in llc_requests:
                self._issue_llc_prefetch(request, t, trigger_block=block,
                                         page_size_bit=page_size_bit)
        return ready

    # ------------------------------------------------------------------
    # Fills and writebacks
    # ------------------------------------------------------------------
    def _fill_l1(self, block: int, dirty: bool) -> None:
        evicted = self.l1d.fill(block, dirty=dirty)
        if self.observer is not None:
            self.observer.on_fill("l1d", block, dirty, False, -1,
                                  None if evicted is None else evicted[0])
        if evicted is not None and evicted[1].dirty:
            self._writeback_to_l2(evicted[0])

    def _writeback_to_l2(self, block: int) -> None:
        if self.l2c.contains(block):
            if self.observer is not None:
                self.observer.on_mark_dirty("l2c", block)
            self.l2c.mark_dirty(block)
        else:
            evicted = self.l2c.fill(block, dirty=True)
            if self.observer is not None:
                self.observer.on_fill("l2c", block, True, False, -1,
                                      None if evicted is None else evicted[0])
            self._handle_l2_eviction(evicted)

    def _fill_l2(self, block: int, prefetch: bool = False,
                 issuer: int = -1) -> None:
        evicted = self.l2c.fill(block, prefetch=prefetch, issuer=issuer)
        if self.observer is not None:
            self.observer.on_fill("l2c", block, False, prefetch, issuer,
                                  None if evicted is None else evicted[0])
        self._handle_l2_eviction(evicted)

    def _handle_l2_eviction(self, evicted) -> None:
        if evicted is None:
            return
        victim_block, victim_line = evicted
        if victim_line.prefetch:
            # Prefetched but never demanded: negative feedback (PPF).
            self.l2_module.on_evicted_unused(victim_block, victim_line.issuer)
        if victim_line.dirty:
            self._writeback_to_llc(victim_block)

    def _writeback_to_llc(self, block: int) -> None:
        if self.llc.contains(block):
            if self.observer is not None:
                self.observer.on_mark_dirty("llc", block)
            self.llc.mark_dirty(block)
        else:
            evicted = self.llc.fill(block, dirty=True)
            if self.observer is not None:
                self.observer.on_fill("llc", block, True, False, -1,
                                      None if evicted is None else evicted[0])
            self._handle_llc_eviction(evicted)

    def _fill_llc(self, block: int, prefetch: bool = False,
                  issuer: int = -1) -> None:
        evicted = self.llc.fill(block, prefetch=prefetch, issuer=issuer)
        if self.observer is not None:
            self.observer.on_fill("llc", block, False, prefetch, issuer,
                                  None if evicted is None else evicted[0])
        self._handle_llc_eviction(evicted)

    def _handle_llc_eviction(self, evicted) -> None:
        if evicted is None:
            return
        victim_block, victim_line = evicted
        if victim_line.dirty:
            # Posted write: consumes DRAM bandwidth, nobody waits on it.
            self.dram.access(victim_block, 0.0, is_write=True)

    # ------------------------------------------------------------------
    # Prefetch issue
    # ------------------------------------------------------------------
    def _check_prefetch_bounds(self, target: int, trigger: int,
                               page_size_bit: Optional[int],
                               where: str) -> None:
        """REPRO_CHECK: a prefetch must stay inside its trigger's page.

        Two independent formulations, deliberately *not* sharing code with
        :func:`repro.core.psa.prefetch_window` (so a bug there cannot fool
        the check):

        1. the window implied by the page-size information the prefetcher
           was given — 4KB when the bit is absent or 0, the 2MB page when
           it says 2MB, the 1GB page when it says 1GB;
        2. the pool-geometry ground truth: the target must lie inside the
           physical page the allocator actually carved for the trigger,
           and the delivered bit must agree with that page's true size.
        """
        if page_size_bit == PAGE_SIZE_1G:
            span = BLOCKS_PER_1G
        elif page_size_bit == PAGE_SIZE_2M:
            span = BLOCKS_PER_2M
        else:
            span = BLOCKS_PER_4K
        lo = trigger & ~(span - 1)
        if not lo <= target <= lo + span - 1:
            invariants.violated(
                f"{where}: prefetch {target:#x} crosses the "
                f"{span * 64}-byte page boundary of trigger {trigger:#x} "
                f"(page-size bit {page_size_bit!r})")
        window = self.allocator.physical_window_of_block(trigger)
        if window is not None:
            lo_true, hi_true, true_ps = window
            if not lo_true <= target <= hi_true:
                invariants.violated(
                    f"{where}: prefetch {target:#x} leaves the physical "
                    f"page [{lo_true:#x}, {hi_true:#x}] of trigger "
                    f"{trigger:#x} (true page size {true_ps})")
            if page_size_bit is not None and page_size_bit != true_ps:
                invariants.violated(
                    f"{where}: page-size bit {page_size_bit} for trigger "
                    f"{trigger:#x} disagrees with pool geometry "
                    f"(true size {true_ps})")

    def _issue_l2_prefetch(self, request: PrefetchRequest, now: float,
                           trigger_block: Optional[int] = None,
                           page_size_bit: Optional[int] = None) -> None:
        block, fill_l2, issuer = request
        if self._check and trigger_block is not None:
            self._check_prefetch_bounds(block, trigger_block, page_size_bit,
                                        "L2C")
        obs = self.observer
        if obs is not None:
            obs.on_prefetch_request("l2c", block, fill_l2, issuer,
                                    trigger_block, page_size_bit)
        if self.l2c.contains(block) or self.l2c.inflight_contains(block, now):
            self.pf_redundant += 1
            if obs is not None:
                obs.on_prefetch_outcome(block, "redundant-l2c", False)
            return
        if fill_l2 and self.l2c.pf_mshr.is_full(now):
            # Prefetch queue full: shed the request (ChampSim drops too).
            self.pf_dropped_mshr += 1
            if obs is not None:
                obs.on_prefetch_outcome(block, "dropped-l2pq", False)
            return
        # Locate the data.  The lookup touches LLC LRU on a hit, so the
        # observer must learn about it *before* any fill events follow.
        llc_line = self.llc.lookup(block)
        if obs is not None:
            obs.on_prefetch_llc_probe(block, llc_line is not None)
        if llc_line is not None:
            ready = now + self.l2c.latency + self.llc.latency
        else:
            inflight = self.llc.inflight_lookup(block, now)
            if inflight is not None:
                ready = inflight[0]
            else:
                if self.llc.pf_mshr.is_full(now):
                    self.pf_dropped_mshr += 1
                    if obs is not None:
                        obs.on_prefetch_outcome(block, "dropped-llcpq", False)
                    return
                ready = self.dram.access(
                    block, now + self.l2c.latency + self.llc.latency)
                self.llc.pf_mshr.insert(block, ready)
                self._fill_llc(block, prefetch=not fill_l2, issuer=issuer)
        llc_hit = llc_line is not None
        if fill_l2:
            self.l2c.pf_mshr.insert(block, ready)
            self._fill_l2(block, prefetch=True, issuer=issuer)
            self.pf_issued_l2 += 1
            if obs is not None:
                obs.on_prefetch_outcome(block, "issued-l2", llc_hit)
        else:
            if llc_hit:
                # Already in LLC: the prefetch is a no-op there.
                self.pf_redundant += 1
                if obs is not None:
                    obs.on_prefetch_outcome(block, "redundant-llc", True)
            else:
                self.pf_issued_llc += 1
                if obs is not None:
                    obs.on_prefetch_outcome(block, "issued-llc", False)

    def _issue_llc_prefetch(self, request: PrefetchRequest, now: float,
                            trigger_block: Optional[int] = None,
                            page_size_bit: Optional[int] = None) -> None:
        """LLC-level prefetch: always fills the LLC, sourced from DRAM."""
        block, _, issuer = request
        if self._check and trigger_block is not None:
            self._check_prefetch_bounds(block, trigger_block, page_size_bit,
                                        "LLC")
        obs = self.observer
        if obs is not None:
            obs.on_prefetch_request("llc", block, False, issuer,
                                    trigger_block, page_size_bit)
        if self.llc.contains(block) or self.llc.inflight_contains(block, now):
            self.pf_redundant += 1
            if obs is not None:
                obs.on_prefetch_outcome(block, "redundant-llc", False)
            return
        if self.llc.pf_mshr.is_full(now):
            self.pf_dropped_mshr += 1
            if obs is not None:
                obs.on_prefetch_outcome(block, "dropped-llcpq", False)
            return
        ready = self.dram.access(block, now + self.llc.latency)
        self.llc.pf_mshr.insert(block, ready)
        self._fill_llc(block, prefetch=True, issuer=issuer)
        self.pf_issued_llc += 1
        if obs is not None:
            obs.on_prefetch_outcome(block, "issued-llc", False)

    def _issue_l1_prefetch(self, pf_vaddr: int, now: float) -> None:
        """L1D prefetch (IPCP): virtual address, fills the L1D.

        Virtual-address prefetches may legally cross physical page
        boundaries (they re-translate), so the physical-window invariant
        does not apply here.
        """
        paddr, page_size = self.allocator.translate(pf_vaddr)
        block = paddr >> 6
        if self.observer is not None:
            self.observer.on_l1_prefetch(pf_vaddr, block, page_size)
        if self.l1d.contains(block) or self.l1d.inflight_contains(block, now):
            return
        if self.l1d.pf_mshr.is_full(now):
            return
        l2_line = self.l2c.lookup(block, update_lru=False)
        if l2_line is not None:
            ready = now + self.l1d.latency + self.l2c.latency
        else:
            llc_line = self.llc.lookup(block, update_lru=False)
            if llc_line is not None:
                ready = (now + self.l1d.latency + self.l2c.latency
                         + self.llc.latency)
            else:
                inflight = self.llc.inflight_lookup(block, now)
                if inflight is not None:
                    ready = inflight[0]
                elif self.llc.pf_mshr.is_full(now):
                    return
                else:
                    ready = self.dram.access(
                        block, now + self.l1d.latency + self.l2c.latency
                        + self.llc.latency)
                    self.llc.pf_mshr.insert(block, ready)
                    self._fill_llc(block)
        self.l1d.pf_mshr.insert(block, ready, page_size=page_size)
        evicted = self.l1d.fill(block, prefetch=True)
        if self.observer is not None:
            self.observer.on_fill("l1d", block, False, True, -1,
                                  None if evicted is None else evicted[0])
        if evicted is not None and evicted[1].dirty:
            self._writeback_to_l2(evicted[0])
        self.l1_pf_issued += 1

    # ------------------------------------------------------------------
    # Page-walk traffic
    # ------------------------------------------------------------------
    def _walk_access(self, paddr: int, now: float) -> float:
        """One serial PTE read through L2C -> LLC -> DRAM (no prefetching)."""
        self.walk_reads += 1
        obs = self.observer
        block = paddr >> 6
        line = self.l2c.lookup(block)
        if line is not None:
            if obs is not None:
                obs.on_walk_read(paddr, True, False)
            return now + self.l2c.latency
        inflight = self.l2c.inflight_lookup(block, now)
        if inflight is not None:
            if obs is not None:
                obs.on_walk_read(paddr, False, True)
            return max(inflight[0], now + self.l2c.latency)
        if obs is not None:
            obs.on_walk_read(paddr, False, False)
        t = self.l2c.mshr.stall_until_free(now)
        ready = self._llc_demand(block, t + self.l2c.latency,
                                 count_demand=False)
        self.l2c.mshr.insert(block, ready)
        self._fill_l2(block)
        return ready

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters at the warmup/measurement boundary.

        Structural state (cache contents, TLBs, prefetcher tables) is
        deliberately preserved — only the statistics restart, matching the
        paper's warm-up-then-measure methodology.
        """
        if self.observer is not None:
            self.observer.on_reset_stats()
        for cache in (self.l1d, self.l2c, self.llc):
            cache.reset_stats()
        self.dram.reset_stats()
        self.translator.reset_stats()
        if hasattr(self.l2_module, "reset_stats"):
            self.l2_module.reset_stats()
        self.loads = self.stores = 0
        self.load_latency_sum = 0.0
        self.l2_demand_latency_sum = 0.0
        self.l2_demand_latency_count = 0
        self.llc_demand_latency_sum = 0.0
        self.llc_demand_latency_count = 0
        self.pf_issued_l2 = self.pf_issued_llc = 0
        self.pf_dropped_mshr = self.pf_redundant = 0
        self.l1_pf_issued = 0
        self.walk_reads = 0

    def avg_load_latency(self) -> float:
        """Mean core-visible load latency (translation + hierarchy)."""
        return self.load_latency_sum / self.loads if self.loads else 0.0

    def l2_avg_demand_latency(self) -> float:
        if not self.l2_demand_latency_count:
            return 0.0
        return self.l2_demand_latency_sum / self.l2_demand_latency_count

    def llc_avg_demand_latency(self) -> float:
        if not self.llc_demand_latency_count:
            return 0.0
        return self.llc_demand_latency_sum / self.llc_demand_latency_count

    def l2_coverage(self) -> float:
        """Fraction of would-be L2C misses eliminated by prefetching."""
        would_be = self.l2c.useful_prefetches + self.l2c.demand_misses
        return self.l2c.useful_prefetches / would_be if would_be else 0.0

    def llc_coverage(self) -> float:
        would_be = self.llc.useful_prefetches + self.llc.demand_misses
        return self.llc.useful_prefetches / would_be if would_be else 0.0

    def l2_accuracy(self) -> float:
        return (self.l2c.useful_prefetches / self.pf_issued_l2
                if self.pf_issued_l2 else 0.0)

    def llc_accuracy(self) -> float:
        return (self.llc.useful_prefetches / self.pf_issued_llc
                if self.pf_issued_llc else 0.0)
