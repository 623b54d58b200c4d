"""Run-level metrics extraction.

``RunMetrics`` snapshots everything the paper's evaluation reports from one
simulation run (Figs. 8-15): IPC, per-level coverage/accuracy/latency, the
boundary-discard counters behind Fig. 2, TLB/DRAM behaviour, and the
allocator's THP usage.  Snapshotting into plain numbers decouples analysis
from live simulator objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.composite import CompositePSAPrefetcher
from repro.core.psa import PSAPrefetchModule
from repro.cpu.core import CoreResult
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.base import BoundaryStats


@dataclass
class RunMetrics:
    """All measured quantities of one (workload, configuration) run."""

    workload: str = ""
    prefetcher: str = "none"
    variant: str = "none"
    # Core
    ipc: float = 0.0
    instructions: int = 0
    cycles: float = 0.0
    memory_accesses: int = 0
    #: ROB stall cycles per memory access — the timeliness cost measure
    #: used in place of the paper's raw access-latency averages (see
    #: EXPERIMENTS.md: summed latencies double-count overlapped waits in a
    #: merge-based model).
    stalls_per_access: float = 0.0
    # L1D
    l1d_mpki: float = 0.0
    avg_load_latency: float = 0.0
    # L2C
    l2_demand_accesses: int = 0
    l2_demand_misses: int = 0
    l2_mpki: float = 0.0
    l2_coverage: float = 0.0
    l2_accuracy: float = 0.0
    l2_avg_latency: float = 0.0
    l2_useful_prefetches: int = 0
    # LLC
    llc_demand_misses: int = 0
    llc_mpki: float = 0.0
    llc_coverage: float = 0.0
    llc_accuracy: float = 0.0
    llc_avg_latency: float = 0.0
    llc_useful_prefetches: int = 0
    # Prefetch issue accounting
    pf_issued_l2: int = 0
    pf_issued_llc: int = 0
    pf_dropped_mshr: int = 0
    pf_redundant: int = 0
    # Boundary behaviour (Fig. 2)
    boundary: BoundaryStats = field(default_factory=BoundaryStats)
    # VM / DRAM
    stlb_miss_ratio: float = 0.0
    page_walks: int = 0
    dram_row_hit_ratio: float = 0.0
    dram_reads: int = 0
    thp_usage: float = 0.0
    # Set-Dueling diagnostics
    sd_follower_psa_fraction: float = 0.0
    sd_follower_psa_2mb_fraction: float = 0.0
    #: Engine accounting: wall-clock seconds this run took to simulate.
    #: Excluded from equality so parallel/cached results still compare
    #: bitwise-equal to serial uncached ones.
    wall_time_s: float = field(default=0.0, compare=False)

    @property
    def pf_issued_total(self) -> int:
        return self.pf_issued_l2 + self.pf_issued_llc

    @property
    def accesses_per_sec(self) -> float:
        """Measured-phase simulation throughput of this run."""
        return (self.memory_accesses / self.wall_time_s
                if self.wall_time_s else 0.0)

    def speedup_over(self, baseline: "RunMetrics") -> float:
        """IPC ratio vs a baseline run of the same workload."""
        if baseline.workload != self.workload:
            raise ValueError(
                f"speedup across different workloads: "
                f"{self.workload!r} vs {baseline.workload!r}")
        return self.ipc / baseline.ipc if baseline.ipc else 0.0


@dataclass
class MixResult:
    """Per-core IPCs of one mix run under one prefetching variant."""

    workloads: List[str]
    ipcs: List[float]
    prefetcher: str = "none"
    variant: str = "none"
    wall_time_s: float = field(default=0.0, compare=False)  # as RunMetrics

    def weighted_ipc(self, isolation_ipcs: List[float]) -> float:
        return sum(ipc / iso if iso else 0.0
                   for ipc, iso in zip(self.ipcs, isolation_ipcs))


def module_boundary_stats(module) -> BoundaryStats:
    """Aggregate BoundaryStats across a module's PSA modules."""
    members = (module.members if isinstance(module, CompositePSAPrefetcher)
               else (module,))
    stats = BoundaryStats()
    for member in members:
        if isinstance(member, PSAPrefetchModule):
            stats.merge(member.stats)
    return stats


def collect_metrics(workload: str, prefetcher: str, variant: str,
                    hierarchy: MemoryHierarchy, core_result: CoreResult,
                    module=None) -> RunMetrics:
    """Snapshot a finished run into a RunMetrics record."""
    module = module if module is not None else hierarchy.l2_module
    metrics = RunMetrics(workload=workload, prefetcher=prefetcher,
                         variant=variant)
    metrics.ipc = core_result.ipc
    metrics.instructions = core_result.instructions
    metrics.cycles = core_result.cycles
    metrics.memory_accesses = core_result.memory_accesses
    if core_result.memory_accesses:
        metrics.stalls_per_access = (core_result.stall_cycles
                                     / core_result.memory_accesses)
    metrics.l1d_mpki = core_result.mpki_of(hierarchy.l1d.demand_misses)
    metrics.avg_load_latency = hierarchy.avg_load_latency()
    metrics.l2_demand_accesses = hierarchy.l2c.demand_accesses
    metrics.l2_demand_misses = hierarchy.l2c.demand_misses
    metrics.l2_mpki = core_result.mpki_of(hierarchy.l2c.demand_misses)
    metrics.l2_coverage = hierarchy.l2_coverage()
    metrics.l2_accuracy = hierarchy.l2_accuracy()
    metrics.l2_avg_latency = hierarchy.l2_avg_demand_latency()
    metrics.l2_useful_prefetches = hierarchy.l2c.useful_prefetches
    metrics.llc_demand_misses = hierarchy.llc.demand_misses
    metrics.llc_mpki = core_result.mpki_of(hierarchy.llc.demand_misses)
    metrics.llc_coverage = hierarchy.llc_coverage()
    metrics.llc_accuracy = hierarchy.llc_accuracy()
    metrics.llc_avg_latency = hierarchy.llc_avg_demand_latency()
    metrics.llc_useful_prefetches = hierarchy.llc.useful_prefetches
    metrics.pf_issued_l2 = hierarchy.pf_issued_l2
    metrics.pf_issued_llc = hierarchy.pf_issued_llc
    metrics.pf_dropped_mshr = hierarchy.pf_dropped_mshr
    metrics.pf_redundant = hierarchy.pf_redundant
    metrics.boundary = module_boundary_stats(module)
    metrics.stlb_miss_ratio = hierarchy.translator.stlb.miss_ratio()
    metrics.page_walks = hierarchy.translator.walks
    metrics.dram_row_hit_ratio = hierarchy.dram.row_hit_ratio()
    metrics.dram_reads = hierarchy.dram.reads
    metrics.thp_usage = hierarchy.allocator.thp_usage_fraction()
    if isinstance(module, CompositePSAPrefetcher):
        psa_frac, psa_2mb_frac = module.selection_fractions()
        metrics.sd_follower_psa_fraction = psa_frac
        metrics.sd_follower_psa_2mb_fraction = psa_2mb_frac
    return metrics
