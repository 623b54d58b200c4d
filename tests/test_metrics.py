"""Tests for repro.sim.metrics — RunMetrics snapshots."""

import pytest

from repro.core.composite import CompositePSAPrefetcher
from repro.core.psa import PSAPrefetchModule
from repro.prefetch.base import BoundaryStats
from repro.prefetch.spp import SPP
from repro.sim.config import DuelingConfig
from repro.sim.metrics import RunMetrics, module_boundary_stats
from repro.sim.simulator import simulate_workload


class TestRunMetrics:
    def test_speedup_over(self):
        a = RunMetrics(workload="w", ipc=1.2)
        b = RunMetrics(workload="w", ipc=1.0)
        assert a.speedup_over(b) == pytest.approx(1.2)

    def test_speedup_cross_workload_rejected(self):
        a = RunMetrics(workload="w1", ipc=1.2)
        b = RunMetrics(workload="w2", ipc=1.0)
        with pytest.raises(ValueError):
            a.speedup_over(b)

    def test_speedup_zero_baseline(self):
        a = RunMetrics(workload="w", ipc=1.2)
        b = RunMetrics(workload="w", ipc=0.0)
        assert a.speedup_over(b) == 0.0

    def test_pf_issued_total(self):
        metrics = RunMetrics(pf_issued_l2=3, pf_issued_llc=4)
        assert metrics.pf_issued_total == 7


class TestModuleBoundaryStats:
    def test_single_module(self):
        module = PSAPrefetchModule(SPP(), mode="original")
        module.stats.proposed = 5
        assert module_boundary_stats(module).proposed == 5

    def test_composite_merged(self):
        module = CompositePSAPrefetcher(
            lambda rb: SPP(region_bits=rb), 1024, DuelingConfig())
        module.members[0].stats.proposed = 3
        module.members[1].stats.proposed = 4
        assert module_boundary_stats(module).proposed == 7

    def test_unknown_module_empty(self):
        assert module_boundary_stats(object()).proposed == 0


class TestCollectIntegration:
    def test_sd_fractions_populated(self):
        metrics = simulate_workload("milc", variant="psa-sd",
                                    n_accesses=4000)
        total = (metrics.sd_follower_psa_fraction
                 + metrics.sd_follower_psa_2mb_fraction)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_coverage_accuracy_in_unit_range(self):
        metrics = simulate_workload("lbm", variant="psa", n_accesses=4000)
        for value in (metrics.l2_coverage, metrics.l2_accuracy,
                      metrics.llc_coverage, metrics.llc_accuracy):
            assert 0.0 <= value <= 1.0

    def test_latencies_positive(self):
        metrics = simulate_workload("mcf", variant="none", n_accesses=4000)
        assert metrics.l2_avg_latency > 0
        assert metrics.llc_avg_latency > 0
