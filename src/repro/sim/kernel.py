"""Columnar hot-path kernel: chunked, vectorized trace execution.

The scalar simulator spends most of its time in per-access Python
dispatch: attribute lookups, method calls and re-derived shifts on the
way from ``Core.step`` through the hierarchy to DRAM.  This module keeps
the *model* bit-for-bit identical while restructuring the *execution*:

1. **Chunk preparation (vectorized).**  For each chunk of trace records
   the allocator classifies every address's page size and computes its
   native TLB page and block number in numpy
   (``PhysicalMemoryAllocator.prepare_chunk``).  Page-size decisions are
   pure hashes, so they vectorize exactly; first-touch allocations are
   replayed scalar, in access order, so allocator state (including dict
   insertion order, which pickled snapshots serialize) matches the
   scalar path bitwise.  The runner then derives the remaining pure
   per-record columns — ROB entry counts, fetch-cycle increments,
   store flags, TLB set indices, and L1/L2/LLC set indices — in one
   vectorized pass per chunk.

2. **Compiled per-core runner (scalar, hoisted).**  ``compile_runner``
   builds one flat loop per core whose batched counters persist in a
   list of cells between calls.  It walks the precomputed columns and
   executes the core timing model and the hierarchy demand/prefetch
   paths, feeding the *unchanged* scalar state machines (prefetcher
   FSMs, Set-Dueling, MSHR contents, LRU order).  ``run_trace``
   drives it one chunk at a time; ``simulate_mix`` drives each core's
   runner one same-core run of records at a time.

One gate, ``fused_enabled``, picks the executor: the runner, or the
``Core.step`` reference loop for every configuration the runner does
not inline (observers, invariant checks, subclassed or non-stock
components).  Equivalence is enforced by the golden corpus digests
(single-core and mixes), reference-vs-runner state digests, and the
snapshot/resume tests (chunk boundaries are clamped to snapshot
barriers, so mid-run state dumps are bitwise identical to reference
ones).

The prefetcher FSMs stay scalar: they mutate tables per event with
data-dependent control flow, so vectorizing them would fork the model.
"""

from __future__ import annotations

from types import SimpleNamespace

try:
    import numpy as _np
except ImportError:                            # pragma: no cover
    _np = None

from repro.verify import invariants

#: Records per chunk: large enough to amortize the vectorized pass and
#: the boundary flushes, small enough that first-touch pre-allocation
#: stays a short lookahead.
CHUNK = 4096

_INF = float("inf")


def fused_enabled(core) -> bool:
    """Whether *core* may run on a compiled runner.

    The runner inlines specific implementations, so each one must be
    exactly the stock class (a subclass could override behaviour the
    loop bypasses).
    Observers and invariant checks need the un-fused event sites.
    Chunk translation is only sound when nothing else allocates: the
    TLB-prefetch extension and the L1D (virtual-address) prefetcher
    both call ``allocator.translate`` mid-stream, which would interleave
    first-touch allocations with the chunk's replay.
    """
    from repro.cpu.core import Core
    from repro.core.ppm import PageSizePropagationModule
    from repro.memory.cache import Cache
    from repro.memory.dram import DRAM
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.mshr import MSHR
    from repro.vm.allocator import PhysicalMemoryAllocator
    from repro.vm.tlb import TLB
    from repro.vm.walker import AddressTranslator
    h = core.hierarchy
    if not (_np is not None
            and type(core) is Core
            and type(h) is MemoryHierarchy
            and type(h.allocator) is PhysicalMemoryAllocator
            and h.l1d_prefetcher is None
            and not h.config.tlb_prefetch
            and h.observer is None
            and not h._check
            and not invariants.enabled()
            and h.llc_module is None
            and type(h.dram) is DRAM
            and type(h.translator) is AddressTranslator
            and type(h.translator.dtlb) is TLB
            and type(h.ppm) is PageSizePropagationModule):
        return False
    for cache in (h.l1d, h.l2c, h.llc):
        if (type(cache) is not Cache or type(cache.mshr) is not MSHR
                or type(cache.pf_mshr) is not MSHR):
            return False
    return True


def run_trace(core, trace, warmup_records: int = 0, start_index: int = 0,
              on_record=None, barrier_every: int = 0):
    """Execute *trace* on *core*; the ``Core.run`` entry point.

    Feeds the core's compiled runner one prepared chunk at a time, or
    runs the ``Core.step`` reference loop when ``fused_enabled`` says
    no, when ``on_record`` declares no barrier (an arbitrary per-record
    callback must observe exact state after every record), or when the
    addresses do not fit the columnar dtypes.
    """
    n = len(trace.records)
    cols = None
    if (n and (on_record is None or barrier_every > 0)
            and fused_enabled(core)):
        try:
            cols = trace.columns()
        except (RuntimeError, OverflowError, TypeError, ValueError):
            pass    # synthetic tests use arbitrary ints
    if cols is None:
        return core.run_scalar(trace, warmup_records=warmup_records,
                               start_index=start_index, on_record=on_record)
    addresses = cols[1]

    if start_index == 0:
        core.reset()
    runner = compile_runner(core, core.hierarchy, on_record)
    prepare = core.hierarchy.allocator.prepare_chunk
    index = start_index
    while index < n:
        if index == warmup_records:
            runner.begin_measurement()
        end = min(index + CHUNK, n)
        if index < warmup_records:
            end = min(end, warmup_records)
        if barrier_every > 0:
            end = min(end, ((index // barrier_every) + 1) * barrier_every)
        runner.feed(cols, index, end, prepare(addresses[index:end]))
        runner.run(index, end, _INF)
        # Chunk ends are the barriers: object state is exact here.
        runner.flush()
        if on_record is not None:
            on_record(end - 1)
        index = end
    if warmup_records >= n:
        core.begin_measurement()
    return core.finish()


def compile_runner(core, h, on_record=None):
    """Compile *core*'s fused inner loop, once per core.

    Mirrors, line for line, ``Core.step`` → ``MemoryHierarchy._access``
    → ``_l2_demand`` → ``_llc_demand`` → ``_issue_l2_prefetch`` with the
    stock ``Cache``/``MSHR``/``TLB``/``DRAM``/LRU implementations inlined
    (guarded by ``fused_enabled``): a cache or DTLB hit moves its key to
    the end of its set's dict, a fill appends it, and the victim is the
    first key.  Escapes into un-inlined machinery (page walks, writeback
    cascades, prefetch module callbacks, MSHR capacity sweeps, posted
    DRAM writes, the prefetch-issue LLC merge probe) touch object state
    only.  A capacity sweep calls ``MSHR._expire`` only when the MSHR's
    ``_floor`` bound says it will retire something.

    Returns closures sharing one list of counter cells:

    - ``feed(cols, lo, hi, pre)`` loads the inputs of records
      ``[lo, hi)``; ``pre`` holds the translation lists in
      ``prepare_chunk``'s shape ``(page sizes, native pages, blocks)``;
    - ``run(lo, hi, limit)`` executes records from ``lo`` until ``hi``,
      or until the core clock reaches ``limit`` (at least one record),
      and returns ``(next index, core clock)``.  It starts in O(1);
    - ``flush()`` writes the batched counters back to their objects;
    - ``begin_measurement()`` flushes, starts the measurement and
      reloads the cells (``reset_stats`` zeroes most counters).

    Core-private counters stay in the cells between calls.  The shared
    LLC's demand counters are loaded and stored around every ``run``:
    other cores' runners update them in between.
    """
    from repro.memory.cache import CacheLine

    # Batched counters: the (owner, attribute) behind each cell, in the
    # order run() unpacks and packs them.
    dtlb = h.translator.dtlb
    slots = (
        (core, "fetch"), (core, "retire_frontier"), (core, "occupancy"),
        (core, "last_load_complete"), (core, "instructions"),
        (core, "memory_accesses"), (core, "stall_cycles"),
        (h, "loads"), (h, "stores"), (h, "load_latency_sum"),
        (h, "l2_demand_latency_sum"), (h, "l2_demand_latency_count"),
        (h, "llc_demand_latency_sum"), (h, "llc_demand_latency_count"),
        (h, "pf_issued_l2"), (h, "pf_issued_llc"), (h, "pf_dropped_mshr"),
        (h, "pf_redundant"),
        (h.l1d, "demand_accesses"), (h.l1d, "demand_hits"),
        (h.l1d, "demand_misses"), (h.l1d, "useful_prefetches"),
        (h.l2c, "demand_accesses"), (h.l2c, "demand_hits"),
        (h.l2c, "demand_misses"), (h.l2c, "useful_prefetches"),
        (dtlb, "hits"), (dtlb, "misses"), (dtlb, "hits_2m"),
        (h.ppm, "annotations"),
        (h.l1d.mshr, "stalls"), (h.l1d.mshr, "merges"),
        (h.l1d.mshr, "inserts"), (h.l1d.pf_mshr, "merges"))
    cells = [getattr(owner, name) for owner, name in slots]
    recs, base = None, 0    # feed(): input tuples of records base, ...

    def flush():
        for (owner, name), value in zip(slots, cells):
            setattr(owner, name, value)

    def begin_measurement():
        flush()
        core.begin_measurement()
        cells[:] = [getattr(owner, name) for owner, name in slots]

    def feed(cols, lo: int, hi: int, pre) -> None:
        # Pure per-record functions, derived column-wise.
        nonlocal recs, base
        ps_l, nat_l, block_l = pre
        entries = cols[3][lo:hi] + 1
        blocks = _np.array(block_l, dtype=_np.int64)
        natives = _np.array(nat_l, dtype=_np.int64)
        recs = list(zip(
            entries.tolist(), (entries / core.fetch_width).tolist(),
            (cols[2][lo:hi] != 0).tolist(), cols[4][lo:hi].tolist(),
            zip(ps_l, nat_l), (natives % dtlb.num_sets).tolist(), ps_l,
            block_l, (blocks & h.l1d._set_mask).tolist(),
            (blocks & h.l2c._set_mask).tolist(),
            (blocks & h.llc._set_mask).tolist(),
            cols[0][lo:hi].tolist(), cols[1][lo:hi].tolist()))
        base = lo

    def run(lo: int, hi: int, limit: float):
        # Everything the loop touches is a fast local, hoisted from the
        # objects per span and unpacked from the cells: reading closure
        # cells instead made the single-core loop ~5% slower.
        # --- structures ----------------------------------------------------
        l1d = h.l1d
        l2c = h.l2c
        llc = h.llc
        dram = h.dram
        l1_sets = l1d._sets
        l1_ways = l1d.ways
        l1_lat = l1d.latency
        l2_sets = l2c._sets
        l2_mask = l2c._set_mask
        l2_ways = l2c.ways
        l2_lat = l2c.latency
        l3_sets = llc._sets
        l3_mask = llc._set_mask
        l3_ways = llc.ways
        l3_lat = llc.latency
        l1_mshr = l1d.mshr
        l1_ments = l1_mshr._entries
        l1_cap = l1_mshr.capacity
        l1_pq = l1d.pf_mshr
        l1_pents = l1_pq._entries
        l2_mshr = l2c.mshr
        l2_ments = l2_mshr._entries
        l2_cap = l2_mshr.capacity
        l2_pq = l2c.pf_mshr
        l2_pents = l2_pq._entries
        l2_pq_cap = l2_pq.capacity
        l3_mshr = llc.mshr
        l3_ments = l3_mshr._entries
        l3_cap = l3_mshr.capacity
        l3_pq = llc.pf_mshr
        l3_pents = l3_pq._entries
        l3_pq_cap = l3_pq.capacity
        llc_inflight = llc.inflight_lookup
        translator = h.translator
        dtlb_sets = translator.dtlb._sets
        translate_miss = translator._translate_after_dtlb_miss
        walk_fn = h._walk_access
        module = h.l2_module
        mod_access = module.on_l2_access
        mod_useful = module.on_useful
        mod_miss = module.on_demand_miss
        mod_evict = module.on_evicted_unused
        writeback_l2 = h._writeback_to_l2
        writeback_llc = h._writeback_to_llc
        ppm = h.ppm
        ppm_enabled = ppm.enabled
        use_ps_bit = h.oracle_page_size or ppm_enabled
        ppm_to_llc = h.config.ppm_to_llc
        n_channels = dram.channels
        n_banks = dram.banks
        bank_row_div = n_banks * dram._blocks_per_row
        open_rows = dram._open_rows
        channel_free = dram._channel_free
        cpt = dram._cycles_per_transfer
        row_hit_lat = dram.config.row_hit_latency
        row_miss_lat = dram.config.row_miss_latency
        rob_entries = core.rob_entries
        inflight = core.inflight
        inflight_append = inflight.append
        inflight_popleft = inflight.popleft
        (fetch, retire_frontier, occupancy, last_load_complete,
         instructions, memory_accesses, stall_cycles, h_loads,
         h_stores, h_load_lat, l2_lat_sum, l2_lat_cnt, l3_lat_sum,
         l3_lat_cnt, pf_l2, pf_llc, pf_drop, pf_red, l1_dem, l1_hit,
         l1_miss, l1_use, l2_dem, l2_hit, l2_missc, l2_use, dt_hits,
         dt_miss, dt_hits2m, ppm_ann, l1m_stalls, l1m_merges, l1m_ins,
         l1p_merges) = cells
        l3_dem = llc.demand_accesses
        l3_hit = llc.demand_hits
        l3_missc = llc.demand_misses
        l3_use = llc.useful_prefetches
        last = hi - 1
        for i in range(lo, hi):
            (entries, finc, is_write, dep, key, dsi, ps, block, s1, s2, s3,
             ip, vaddr) = recs[i - base]
            # --- Core.step: ROB reclaim + fetch ---------------------------
            while occupancy + entries > rob_entries and inflight:
                complete, freed = inflight_popleft()
                if complete > retire_frontier:
                    retire_frontier = complete
                occupancy -= freed
            if retire_frontier > fetch:
                stall_cycles += retire_frontier - fetch
                fetch = retire_frontier
            fetch += finc
            issue_at = fetch
            if dep and last_load_complete > issue_at:
                issue_at = last_load_complete
            if is_write:
                h_stores += 1
            else:
                h_loads += 1
            # --- translate (DTLB native-key probe; walker on miss) --------
            # TLB.fill installs an address only at its native granularity,
            # a pure function of the allocator's region hashes, so the
            # native key alone answers TLB.lookup's three probes.
            dset = dtlb_sets[dsi]
            if dset.pop(key, False):
                dset[key] = True
                dt_hits += 1
                if ps == 1:
                    dt_hits2m += 1
                t = issue_at
            else:
                dt_miss += 1
                t = issue_at + translate_miss(vaddr, ps, issue_at, walk_fn)
            # --- L1D demand ----------------------------------------------
            l1_set = l1_sets[s1]
            line = l1_set.get(block)
            l1_dem += 1
            if line is not None:
                del l1_set[block]
                l1_set[block] = line
                l1_hit += 1
                if line.prefetch:
                    l1_use += 1
                    line.prefetch = False
                if is_write:
                    line.dirty = True
            else:
                l1_miss += 1
            # Merge probe: the demand MSHR, then the prefetch queue.
            e = l1_ments.get(block)
            if e is not None:
                if e[0] <= t:
                    del l1_ments[block]
                    e = None
                else:
                    l1m_merges += 1
            if e is None:
                e = l1_pents.get(block)
                if e is not None:
                    if e[0] <= t:
                        del l1_pents[block]
                        e = None
                    else:
                        l1p_merges += 1
            if line is not None:
                ready = t + l1_lat
                if e is not None and e[0] > ready:
                    ready = e[0]
            elif e is not None:
                # Merge with the in-flight fill.
                ready = e[0]
                floor = t + l1_lat
                if floor > ready:
                    ready = floor
            else:
                # True L1 miss: MSHR stall, then the L2 demand path.
                if len(l1_ments) >= l1_cap:
                    if l1_mshr._floor <= t:
                        l1_mshr._expire(t)
                    if len(l1_ments) >= l1_cap:
                        l1m_stalls += 1
                        t = min(en[0] for en in l1_ments.values())
                t_l2 = t + l1_lat
                # --- _l2_demand --------------------------------------------
                psb = ps if use_ps_bit else None
                l2_set = l2_sets[s2]
                line2 = l2_set.get(block)
                hit2 = line2 is not None
                l2_dem += 1
                useful_issuer = None
                if hit2:
                    del l2_set[block]
                    l2_set[block] = line2
                    l2_hit += 1
                    if line2.prefetch:
                        l2_use += 1
                        line2.prefetch = False
                        useful_issuer = line2.issuer
                else:
                    l2_missc += 1
                if useful_issuer is not None:
                    mod_useful(block, useful_issuer)
                requests = mod_access(block, ip, s2, psb, ps)
                if not hit2:
                    mod_miss(block)
                e = l2_ments.get(block)
                if e is not None:
                    if e[0] <= t_l2:
                        del l2_ments[block]
                        e = None
                    else:
                        l2_mshr.merges += 1
                if e is None:
                    e = l2_pents.get(block)
                    if e is not None:
                        if e[0] <= t_l2:
                            del l2_pents[block]
                            e = None
                        else:
                            l2_pq.merges += 1
                if hit2:
                    ready2 = t_l2 + l2_lat
                    if e is not None and e[0] > ready2:
                        ready2 = e[0]
                elif e is not None:
                    ready2 = e[0]
                    floor = t_l2 + l2_lat
                    if floor > ready2:
                        ready2 = floor
                else:
                    t_alloc = t_l2
                    if len(l2_ments) >= l2_cap:
                        if l2_mshr._floor <= t_l2:
                            l2_mshr._expire(t_l2)
                        if len(l2_ments) >= l2_cap:
                            l2_mshr.stalls += 1
                            t_alloc = min(en[0] for en in l2_ments.values())
                    bit_llc = psb if ppm_to_llc else None
                    # --- _llc_demand (count_demand=True) -------------------
                    t3 = t_alloc + l2_lat
                    l3_set = l3_sets[s3]
                    line3 = l3_set.get(block)
                    hit3 = line3 is not None
                    l3_dem += 1
                    ui3 = None
                    if hit3:
                        del l3_set[block]
                        l3_set[block] = line3
                        l3_hit += 1
                        if line3.prefetch:
                            l3_use += 1
                            line3.prefetch = False
                            ui3 = line3.issuer
                    else:
                        l3_missc += 1
                    if ui3 is not None:
                        mod_useful(block, ui3)
                    e = l3_ments.get(block)
                    if e is not None:
                        if e[0] <= t3:
                            del l3_ments[block]
                            e = None
                        else:
                            l3_mshr.merges += 1
                    if e is None:
                        e = l3_pents.get(block)
                        if e is not None:
                            if e[0] <= t3:
                                del l3_pents[block]
                                e = None
                            else:
                                l3_pq.merges += 1
                    if hit3:
                        ready3 = t3 + l3_lat
                        if e is not None and e[0] > ready3:
                            ready3 = e[0]
                    elif e is not None:
                        ready3 = e[0]
                        floor = t3 + l3_lat
                        if floor > ready3:
                            ready3 = floor
                    else:
                        tb = t3
                        if len(l3_ments) >= l3_cap:
                            if l3_mshr._floor <= t3:
                                l3_mshr._expire(t3)
                            if len(l3_ments) >= l3_cap:
                                l3_mshr.stalls += 1
                                tb = min(en[0] for en in l3_ments.values())
                        # DRAM read.
                        tq = tb + l3_lat
                        ch = block % n_channels
                        within = block // n_channels
                        bank = within % n_banks
                        row = within // bank_row_div
                        start = channel_free[ch]
                        if start < tq:
                            start = tq
                        dram.total_queue_cycles += start - tq
                        orow = open_rows[ch]
                        if orow[bank] == row:
                            lat = row_hit_lat
                            dram.row_hits += 1
                        else:
                            lat = row_miss_lat
                            dram.row_misses += 1
                            orow[bank] = row
                        channel_free[ch] = start + cpt
                        dram.reads += 1
                        ready3 = start + lat
                        # llc.mshr.insert(block, ready3)
                        if len(l3_ments) >= l3_cap:
                            if l3_mshr._floor <= ready3:
                                l3_mshr._expire(ready3)
                            if len(l3_ments) >= l3_cap:
                                raise RuntimeError(
                                    f"{l3_mshr.name}: insert into full MSHR")
                        l3_ments[block] = (ready3, 0)
                        l3_mshr.inserts += 1
                        if ready3 < l3_mshr._floor:
                            l3_mshr._floor = ready3
                        # _fill_llc(block)
                        existing = l3_set.get(block)
                        if existing is not None:
                            existing.prefetch = False
                        else:
                            if len(l3_set) >= l3_ways:
                                victim = next(iter(l3_set))
                                if l3_set.pop(victim).dirty:
                                    llc.writebacks += 1
                                    # LLC eviction: posted DRAM write.
                                    dram.access(victim, 0.0, True)
                            l3_set[block] = CacheLine()
                    l3_lat_sum += ready3 - t3
                    l3_lat_cnt += 1
                    # --- back in _l2_demand: allocate + fill L2 ------------
                    ready2 = ready3
                    ps_ins = 0 if bit_llc is None else bit_llc
                    if len(l2_ments) >= l2_cap:
                        if l2_mshr._floor <= ready2:
                            l2_mshr._expire(ready2)
                        if len(l2_ments) >= l2_cap:
                            raise RuntimeError(
                                f"{l2_mshr.name}: insert into full MSHR")
                    l2_ments[block] = (ready2, ps_ins)
                    l2_mshr.inserts += 1
                    if ready2 < l2_mshr._floor:
                        l2_mshr._floor = ready2
                    # _fill_l2(block)
                    existing = l2_set.get(block)
                    if existing is not None:
                        existing.prefetch = False
                    else:
                        evicted_line = None
                        if len(l2_set) >= l2_ways:
                            victim = next(iter(l2_set))
                            evicted_line = l2_set.pop(victim)
                            if evicted_line.dirty:
                                l2c.writebacks += 1
                        l2_set[block] = CacheLine()
                        if evicted_line is not None:
                            if evicted_line.prefetch:
                                mod_evict(victim, evicted_line.issuer)
                            if evicted_line.dirty:
                                writeback_llc(victim)
                l2_lat_sum += ready2 - t_l2
                l2_lat_cnt += 1
                # --- prefetch issue (_issue_l2_prefetch per request) ------
                t_pf = t_l2 + l2_lat + l3_lat   # an LLC hit's ready time
                for pb, fill_l2, issuer in requests:
                    s2p = pb & l2_mask
                    if pb in l2_sets[s2p]:
                        pf_red += 1
                        continue
                    e = l2_ments.get(pb)
                    if e is not None and e[0] <= t_l2:
                        del l2_ments[pb]
                        e = None
                    if e is None:
                        e = l2_pents.get(pb)
                        if e is not None and e[0] <= t_l2:
                            del l2_pents[pb]
                            e = None
                    if e is not None:
                        pf_red += 1
                        continue
                    if fill_l2 and len(l2_pents) >= l2_pq_cap:
                        if l2_pq._floor <= t_l2:
                            l2_pq._expire(t_l2)
                        if len(l2_pents) >= l2_pq_cap:
                            pf_drop += 1
                            continue
                    # Locate the data: LLC probe (touches LRU on hit).
                    s3p = pb & l3_mask
                    l3p_set = l3_sets[s3p]
                    line3 = l3p_set.get(pb)
                    if line3 is not None:
                        del l3p_set[pb]
                        l3p_set[pb] = line3
                        pf_ready = t_pf
                    else:
                        e = llc_inflight(pb, t_l2)
                        if e is not None:
                            pf_ready = e[0]
                        else:
                            if len(l3_pents) >= l3_pq_cap:
                                if l3_pq._floor <= t_l2:
                                    l3_pq._expire(t_l2)
                                if len(l3_pents) >= l3_pq_cap:
                                    pf_drop += 1
                                    continue
                            # DRAM read for the prefetch.
                            tq = t_pf
                            ch = pb % n_channels
                            within = pb // n_channels
                            bank = within % n_banks
                            row = within // bank_row_div
                            start = channel_free[ch]
                            if start < tq:
                                start = tq
                            dram.total_queue_cycles += start - tq
                            orow = open_rows[ch]
                            if orow[bank] == row:
                                lat = row_hit_lat
                                dram.row_hits += 1
                            else:
                                lat = row_miss_lat
                                dram.row_misses += 1
                                orow[bank] = row
                            channel_free[ch] = start + cpt
                            dram.reads += 1
                            pf_ready = start + lat
                            # llc.pf_mshr.insert(pb, pf_ready)
                            if len(l3_pents) >= l3_pq_cap:
                                if l3_pq._floor <= pf_ready:
                                    l3_pq._expire(pf_ready)
                                if len(l3_pents) >= l3_pq_cap:
                                    raise RuntimeError(
                                        f"{l3_pq.name}: insert into full MSHR")
                            l3_pents[pb] = (pf_ready, 0)
                            l3_pq.inserts += 1
                            if pf_ready < l3_pq._floor:
                                l3_pq._floor = pf_ready
                            # _fill_llc(pb, prefetch=not fill_l2, issuer)
                            pf_flag = not fill_l2
                            existing = l3p_set.get(pb)
                            if existing is not None:
                                if not pf_flag:
                                    existing.prefetch = False
                            else:
                                if len(l3p_set) >= l3_ways:
                                    victim = next(iter(l3p_set))
                                    if l3p_set.pop(victim).dirty:
                                        llc.writebacks += 1
                                        dram.access(victim, 0.0, True)
                                l3p_set[pb] = CacheLine(
                                    prefetch=pf_flag, issuer=issuer)
                                if pf_flag:
                                    llc.prefetch_fills += 1
                    if fill_l2:
                        # l2c.pf_mshr.insert(pb, pf_ready)
                        if len(l2_pents) >= l2_pq_cap:
                            if l2_pq._floor <= pf_ready:
                                l2_pq._expire(pf_ready)
                            if len(l2_pents) >= l2_pq_cap:
                                raise RuntimeError(
                                    f"{l2_pq.name}: insert into full MSHR")
                        l2_pents[pb] = (pf_ready, 0)
                        l2_pq.inserts += 1
                        if pf_ready < l2_pq._floor:
                            l2_pq._floor = pf_ready
                        # _fill_l2(pb, prefetch=True, issuer)
                        l2p_set = l2_sets[s2p]
                        if pb not in l2p_set:
                            # (a present line would merge without clearing)
                            evicted_line = None
                            if len(l2p_set) >= l2_ways:
                                victim = next(iter(l2p_set))
                                evicted_line = l2p_set.pop(victim)
                                if evicted_line.dirty:
                                    l2c.writebacks += 1
                            l2p_set[pb] = CacheLine(
                                prefetch=True, issuer=issuer)
                            l2c.prefetch_fills += 1
                            if evicted_line is not None:
                                if evicted_line.prefetch:
                                    mod_evict(victim, evicted_line.issuer)
                                if evicted_line.dirty:
                                    writeback_llc(victim)
                        pf_l2 += 1
                    elif line3 is not None:
                        pf_red += 1
                    else:
                        pf_llc += 1
                ready = ready2
                # --- PPM annotation: L1D MSHR insert -----------------------
                bit1 = ps if ppm_enabled else 0
                if ppm_enabled:
                    ppm_ann += 1
                if len(l1_ments) >= l1_cap:
                    if l1_mshr._floor <= ready:
                        l1_mshr._expire(ready)
                    if len(l1_ments) >= l1_cap:
                        raise RuntimeError(
                            f"{l1_mshr.name}: insert into full MSHR")
                l1_ments[block] = (ready, bit1)
                l1m_ins += 1
                if ready < l1_mshr._floor:
                    l1_mshr._floor = ready
                # --- _fill_l1(block, dirty=is_write) -----------------------
                existing = l1_set.get(block)
                if existing is not None:
                    existing.dirty = existing.dirty or is_write
                    existing.prefetch = False
                else:
                    evicted_line = None
                    if len(l1_set) >= l1_ways:
                        victim = next(iter(l1_set))
                        evicted_line = l1_set.pop(victim)
                        if evicted_line.dirty:
                            l1d.writebacks += 1
                    l1_set[block] = CacheLine(dirty=is_write)
                    if evicted_line is not None and evicted_line.dirty:
                        writeback_l2(victim)
            # --- Core.step epilogue ---------------------------------------
            if is_write:
                complete = issue_at + 1.0
            else:
                complete = ready
                h_load_lat += complete - issue_at
                last_load_complete = complete
            inflight_append((complete, entries))
            occupancy += entries
            instructions += entries
            memory_accesses += 1
            if on_record is not None and i != last:
                on_record(i)
            if fetch >= limit:
                break
        llc.demand_accesses = l3_dem
        llc.demand_hits = l3_hit
        llc.demand_misses = l3_missc
        llc.useful_prefetches = l3_use
        cells[:] = (fetch, retire_frontier, occupancy, last_load_complete,
                    instructions, memory_accesses, stall_cycles, h_loads,
                    h_stores, h_load_lat, l2_lat_sum, l2_lat_cnt, l3_lat_sum,
                    l3_lat_cnt, pf_l2, pf_llc, pf_drop, pf_red, l1_dem, l1_hit,
                    l1_miss, l1_use, l2_dem, l2_hit, l2_missc, l2_use,
                    dt_hits, dt_miss, dt_hits2m, ppm_ann, l1m_stalls,
                    l1m_merges, l1m_ins, l1p_merges)
        return i + 1, fetch
    return SimpleNamespace(feed=feed, run=run, flush=flush,
                           begin_measurement=begin_measurement)
