"""Multi-core simulation (Figs. 14-15).

Cores run independent workloads over private L1D/L2C/TLB hierarchies that
share one LLC and one DRAM (Table I: per-core 2MB LLC slice -> the shared
LLC scales with core count; DRAM configuration is the *same* for 4- and
8-core runs, which is why the paper's 8-core gains are bandwidth-limited).

Interleaving: at each step the core with the smallest local clock executes
its next trace record, so shared-resource contention (LLC capacity, DRAM
bandwidth and row buffers) is observed in approximate global time order.
When every core supports it, each core runs on its compiled fused-kernel
runner (``repro.sim.kernel.compile_runner``), one same-core run of
records per call; otherwise (or with a ``REPRO_FAULTS`` ``kill`` armed)
each record goes through ``Core.step``, the reference path.  Both execute
the records in the same global order.

The reported figure of merit is the paper's weighted speedup: for each
workload in a mix, IPC in the mix divided by IPC running alone on the same
multi-core configuration, summed over the mix; a prefetching variant's
score is its weighted IPC normalised to the baseline variant's.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
from typing import Dict, List, Optional, Tuple

from repro.cpu.core import Core
from repro.memory.address import (
    BLOCK_BITS, PAGE_1G_BITS, PAGE_2M_BITS, PAGE_4K_BITS)
from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.sim import faults
from repro.sim.config import SystemConfig, accesses_for_scale
from repro.sim.metrics import MixResult
from repro.sim.runner import RunRequest, run_batch
from repro.sim.simulator import build_hierarchy
from repro.workloads.suites import WorkloadSpec, catalog


def multicore_config(base: SystemConfig, num_cores: int) -> SystemConfig:
    """Scale the shared LLC with core count and enlarge DRAM (Table I)."""
    cfg = dataclasses.replace(base)
    cfg.llc = dataclasses.replace(
        base.llc, size_bytes=base.llc.size_bytes * num_cores,
        mshr_entries=base.llc.mshr_entries * num_cores)
    # The paper uses the *same* DRAM configuration for 4- and 8-core runs
    # (Section VI-C) — that is exactly why its 8-core gains are smaller.
    # Four channels leave a 4-core system latency-bound with headroom and
    # an 8-core system bandwidth-constrained.
    cfg.dram = dataclasses.replace(
        base.dram, size_bytes=32 << 30,
        channels=max(base.dram.channels, 4))
    return cfg


def simulate_mix(specs: List[WorkloadSpec], config: SystemConfig,
                 prefetcher: str, variant: str,
                 n_accesses: Optional[int] = None,
                 warmup_fraction: float = 0.5) -> MixResult:
    """Run one mix: len(specs) cores sharing LLC + DRAM."""
    _, results = _run_mix(specs, config, prefetcher, variant, n_accesses,
                          warmup_fraction)
    return MixResult(workloads=[s.name for s in specs],
                     ipcs=[r.ipc for r in results])


def _run_mix(specs: List[WorkloadSpec], config: SystemConfig,
             prefetcher: str, variant: str, n_accesses: Optional[int],
             warmup_fraction: float) -> Tuple[List[Core], list]:
    """Build and run one mix; return its cores and per-core results."""
    n = n_accesses if n_accesses is not None else accesses_for_scale()
    shared_llc = Cache(config.llc)
    shared_dram = DRAM(config.dram)
    cores: List[Core] = []
    traces = []
    for core_id, spec in enumerate(specs):
        trace = spec.generate(n)
        hierarchy, _ = build_hierarchy(
            trace, config, prefetcher, variant, core_id=core_id,
            shared_llc=shared_llc, shared_dram=shared_dram)
        cores.append(Core(hierarchy, config.rob_entries, config.fetch_width))
        traces.append(trace)
    warmup = int(n * warmup_fraction)
    lengths = [len(trace.records) for trace in traces]
    # An armed ``kill`` fires after the mix's n-th record in execution
    # order, a checkpoint only the reference loop has.
    kill_armed = faults.kill_armed()
    runners = None if kill_armed else _compile_runners(cores, traces)
    executed = 0
    # Min-heap over (core local clock, core index, next record index).
    heap: List[Tuple[float, int, int]] = [
        (0.0, idx, 0) for idx in range(len(cores))]
    heapq.heapify(heap)
    while heap:
        _, idx, index = heapq.heappop(heap)
        core = cores[idx]
        if index == warmup:
            (core if runners is None else runners[idx]).begin_measurement()
        if runners is None:
            core.step(traces[idx].records[index])
            index += 1
            clock = core.now
            if kill_armed:
                faults.access_checkpoint(executed)
                executed += 1
        else:
            # Run the records the one-step loop would give this core in a
            # row: it is popped again while (clock, idx) stays below the
            # heap's minimum, and it must stop at the warmup boundary.
            hi = min(warmup, lengths[idx]) if index < warmup else lengths[idx]
            limit = math.inf
            if heap:
                top_clock, top_idx, _ = heap[0]
                limit = (top_clock if top_idx < idx
                         else math.nextafter(top_clock, math.inf))
            index, clock = runners[idx].run(index, hi, limit)
        if index < lengths[idx]:
            heapq.heappush(heap, (clock, idx, index))
    for runner in runners or ():
        runner.flush()
    for core, length in zip(cores, lengths):
        if warmup >= length:       # as Core.run: nothing is measured
            core.begin_measurement()
    return cores, [core.finish() for core in cores]


#: Native (TLB key) page shift of each page size, indexed by PAGE_SIZE_*.
_NATIVE_BITS = (PAGE_4K_BITS, PAGE_2M_BITS, PAGE_1G_BITS)

#: Records of a core's trace translated and fed to its runner at a time:
#: bounds the runner's input lists whatever the trace length.
FEED_WINDOW = 512


class _FusedCore:
    """A core's compiled runner, fed its trace one window at a time.

    Each core owns its allocator and, under ``fused_enabled``, nothing
    else allocates from it: translating each window in access order
    makes exactly the first touches ``Core.step`` would make.
    """

    def __init__(self, runner, core: Core, cols) -> None:
        self.runner = runner
        self.begin_measurement = runner.begin_measurement
        self.flush = runner.flush
        self.translate = core.hierarchy.allocator.translate
        self.cols = cols
        self.fed = 0          # records [0, fed) have been fed

    def run(self, index: int, hi: int, limit: float) -> Tuple[int, float]:
        if index == self.fed:
            self.fed = min(index + FEED_WINDOW, len(self.cols[1]))
            sizes, natives, blocks = [], [], []
            for vaddr in self.cols[1][index:self.fed].tolist():
                paddr, size = self.translate(vaddr)
                sizes.append(size)
                natives.append(vaddr >> _NATIVE_BITS[size])
                blocks.append(paddr >> BLOCK_BITS)
            self.runner.feed(self.cols, index, self.fed,
                             (sizes, natives, blocks))
        return self.runner.run(index, min(hi, self.fed), limit)


def _compile_runners(cores: List[Core], traces) -> Optional[list]:
    """A ``_FusedCore`` per core, or None when any core must take the
    ``Core.step`` reference path."""
    # Imported here, as in Core.run: importing this module (campaigns
    # do) should not pay for compiling the kernel.
    from repro.sim import kernel

    if not all(kernel.fused_enabled(core) for core in cores):
        return None
    try:
        columns = [trace.columns() for trace in traces]
    except (RuntimeError, OverflowError, TypeError, ValueError):
        return None
    return [_FusedCore(kernel.compile_runner(core, core.hierarchy), core,
                       cols) for core, cols in zip(cores, columns)]


def isolation_ipcs(specs: List[WorkloadSpec], config: SystemConfig,
                   prefetcher: str, variant: str,
                   n_accesses: Optional[int] = None) -> List[float]:
    """IPC of each workload alone on the multi-core configuration.

    One ``run_batch``: shared baselines are deduplicated, parallelised
    and served from the engine's memo and disk cache.
    """
    return [metrics.ipc for metrics in run_batch(
        [RunRequest(spec, prefetcher, variant, n_accesses=n_accesses,
                    config=config) for spec in specs])]


def generate_mixes(num_mixes: int, num_cores: int,
                   seed: int = 7) -> List[List[WorkloadSpec]]:
    """Random workload mixes drawn from the 80-workload catalog."""
    rng = random.Random(seed)
    pool = list(catalog().values())
    return [[pool[rng.randrange(len(pool))] for _ in range(num_cores)]
            for _ in range(num_mixes)]


def mix_weighted_speedup(specs: List[WorkloadSpec], config: SystemConfig,
                         prefetcher: str, variant: str,
                         baseline_variant: str = "original",
                         n_accesses: Optional[int] = None) -> float:
    """Weighted speedup of *variant* over *baseline_variant* for one mix."""
    return mix_weighted_speedups([specs], config, prefetcher, [variant],
                                 baseline_variant, n_accesses)[variant][0]


def mix_weighted_speedups(mixes: List[List[WorkloadSpec]],
                          config: SystemConfig, prefetcher: str,
                          variants: List[str],
                          baseline_variant: str = "original",
                          n_accesses: Optional[int] = None,
                          ) -> Dict[str, List[float]]:
    """Weighted speedups of several variants across many mixes (batched).

    The Figs. 14-15 driver loop as one ``run_batch``: an isolation run
    per distinct workload, then a run per (variant, mix) whose workload
    is the mix's tuple of specs, each deduplicated, cached and supervised
    (``REPRO_FAULTS`` indices name the isolation runs first).
    """
    unique_specs = list({spec.name: spec
                         for mix in mixes for spec in mix}.values())
    all_variants = [baseline_variant] + [v for v in variants
                                         if v != baseline_variant]
    results = run_batch(
        [RunRequest(spec, prefetcher, baseline_variant,
                    n_accesses=n_accesses, config=config)
         for spec in unique_specs]
        + [RunRequest(tuple(mix), prefetcher, variant,
                      n_accesses=n_accesses, config=config)
           for variant in all_variants for mix in mixes])
    iso_by_name = {spec.name: metrics.ipc
                   for spec, metrics in zip(unique_specs, results)}
    mix_results = results[len(unique_specs):]
    by_variant = {
        variant: mix_results[i * len(mixes):(i + 1) * len(mixes)]
        for i, variant in enumerate(all_variants)}

    def weighted_speedup(base: MixResult, run: MixResult) -> float:
        iso = [iso_by_name[name] for name in run.workloads]
        baseline_weighted = base.weighted_ipc(iso)
        return (run.weighted_ipc(iso) / baseline_weighted
                if baseline_weighted else 0.0)

    return {variant: [weighted_speedup(base, run) for base, run in zip(
                by_variant[baseline_variant], by_variant[variant])]
            for variant in variants}
