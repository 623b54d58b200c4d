"""Acceptance tests for the columnar hot-path kernel (PR 6 tentpole).

The contract: every simulation the compiled runner executes produces
**bitwise-identical** results to the ``Core.step`` reference loop —
metrics digests, full model state, and snapshot/resume behaviour —
across all five variants, for any chunk size, and under injected
mid-chunk faults.  ``TestFusedGate`` checks that stock configurations
really reach the runner, so those comparisons compare two executors.
"""

import dataclasses
import pickle

import pytest
from conftest import count_runners, reference_loop

from repro.cpu.core import Core
from repro.memory.cache import Cache
from repro.sim import faults, kernel, runner, snapshot
from repro.sim.config import SystemConfig
from repro.sim.simulator import build_hierarchy, simulate_trace
from repro.verify import golden
from repro.workloads.io import load_trace
from repro.workloads.suites import catalog
from repro.workloads.trace import KIND_LOAD, Trace

ALL_VARIANTS = ("none", "original", "psa", "psa-2mb", "psa-sd")

#: Snapshot interval and kill index deliberately not multiples of the
#: chunk size below, so the kill lands mid-chunk and the snapshot
#: barrier forces a chunk split.
EVERY = 500
KILL_AT = 1300
CHUNK = 192


def run_with_state(trace, variant, prefetcher="spp"):
    """Simulate; return (metrics digest, pickled model state)."""
    config = SystemConfig()
    hierarchy, module = build_hierarchy(trace, config, prefetcher, variant)
    core = Core(hierarchy, config.rob_entries, config.fetch_width)
    core.run(trace, warmup_records=len(trace.records) // 2)
    metrics = simulate_trace(trace, prefetcher=prefetcher, variant=variant)
    state = pickle.dumps(core)
    return golden.metrics_digest(metrics), state


class TestBitwiseEquivalence:
    """The reference loop and the runner agree on digests AND state."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_golden_traces_all_variants(self, variant):
        for path in golden.ensure_traces():
            trace = load_trace(path)
            with reference_loop():
                reference = run_with_state(trace, variant)
            fused = run_with_state(trace, variant)
            assert reference[0] == fused[0], (
                f"{trace.name}/{variant}: metrics digest diverged")
            assert reference[1] == fused[1], (
                f"{trace.name}/{variant}: model state diverged")

    @pytest.mark.parametrize("prefetcher", ["ppf", "bop", "vldp"])
    def test_other_prefetchers(self, prefetcher):
        trace = catalog()["mcf"].generate(3000)
        with reference_loop():
            reference = run_with_state(trace, "psa", prefetcher=prefetcher)
        assert run_with_state(trace, "psa", prefetcher=prefetcher) \
            == reference

    def test_chunk_size_is_invisible(self, monkeypatch):
        trace = catalog()["lbm"].generate(2500)
        results = []
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(kernel, "CHUNK", chunk)
            results.append(run_with_state(trace, "psa-sd"))
        assert results[0] == results[1] == results[2]


class TestFaultsAndSnapshots:
    """Kill mid-chunk, resume from a snapshot: still bitwise identical."""

    @pytest.fixture(autouse=True)
    def snapshot_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "snaps"))
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", str(EVERY))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        monkeypatch.setattr(kernel, "CHUNK", CHUNK)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        runner.clear_cache()
        snapshot.reset_counters()
        yield
        faults.disarm()
        runner.clear_cache()

    def kill_then_resume(self, trace, variant, key):
        faults.arm([faults.FaultAction(kind="kill", at=KILL_AT, first=1)],
                   0)
        try:
            with pytest.raises(faults.InjectedCrash):
                simulate_trace(trace, prefetcher="spp", variant=variant,
                               snapshot_key=key)
            faults.arm([faults.FaultAction(kind="kill", at=KILL_AT,
                                           first=1)], 1)
            return simulate_trace(trace, prefetcher="spp", variant=variant,
                                  snapshot_key=key)
        finally:
            faults.disarm()

    @pytest.mark.parametrize("variant", ["psa", "psa-sd"])
    def test_kill_mid_chunk_resume_matches_both_kernels(self, variant):
        trace = load_trace(golden.ensure_traces()[0])
        with reference_loop():
            reference = simulate_trace(trace, prefetcher="spp",
                                       variant=variant)
        uninterrupted = simulate_trace(trace, prefetcher="spp",
                                       variant=variant)
        resumed = self.kill_then_resume(
            trace, variant, ("kernel-kill", trace.name, variant))
        digests = {golden.metrics_digest(m)
                   for m in (reference, uninterrupted, resumed)}
        assert len(digests) == 1, (
            f"{variant}: reference / runner / killed+resumed runs diverged")
        assert snapshot.COUNTERS["loads"] == 1   # the resume used a snapshot

    def test_snapshot_payloads_bitwise_identical(self, monkeypatch):
        """The snapshot *bytes* written at each barrier must not depend
        on the executor: resuming a reference run from a runner snapshot
        (or vice versa) must be indistinguishable."""
        trace = load_trace(golden.ensure_traces()[0])
        stored = {}
        real_store = snapshot.store

        def capture(key, index, core):
            stored.setdefault(index, []).append(pickle.dumps(core))
            return real_store(key, index, core)

        monkeypatch.setattr(snapshot, "store", capture)
        with reference_loop():
            simulate_trace(trace, prefetcher="spp", variant="psa-sd",
                           snapshot_key=("payload", "reference"))
        simulate_trace(trace, prefetcher="spp", variant="psa-sd",
                       snapshot_key=("payload", "runner"))
        assert stored and all(len(v) == 2 for v in stored.values())
        for index, payloads in stored.items():
            assert payloads[0] == payloads[1], (
                f"snapshot at access {index} differs between executors")


class _SubclassedCache(Cache):
    """Stock behaviour, but a type the runner does not inline."""


#: Configurations ``fused_enabled`` must refuse, as build_hierarchy
#: keywords plus a tweak applied to the built hierarchy.
UNSUPPORTED = {
    "llc-prefetcher": dict(llc_prefetcher="spp"),
    "ipcp-l1d": dict(l1d="ipcp"),
    "tlb-prefetch": dict(config=dataclasses.replace(SystemConfig(),
                                                    tlb_prefetch=True)),
    "cache-subclass": dict(tweak=lambda h: setattr(
        h, "l2c", _SubclassedCache(h.config.l2c))),
}


class TestFusedGate:
    """``Core.run`` compiles a runner exactly when the runner can run."""

    @pytest.fixture(autouse=True)
    def built(self, monkeypatch):
        # Invariant checks take the reference loop (tested below), so
        # they stay off here even in a REPRO_CHECK=1 session.
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        return count_runners(monkeypatch)

    @staticmethod
    def run(prefetcher="spp", variant="psa", config=None, tweak=None,
            on_record=None, **build):
        """Run 600 mcf records (300 measured) through ``Core.run``."""
        trace = catalog()["mcf"].generate(600)
        config = config or SystemConfig()
        hierarchy, _ = build_hierarchy(trace, config, prefetcher, variant,
                                       **build)
        if tweak is not None:
            tweak(hierarchy)
        core = Core(hierarchy, config.rob_entries, config.fetch_width)
        return core.run(trace, warmup_records=len(trace.records) // 2,
                        on_record=on_record)

    @pytest.mark.parametrize("prefetcher,variant",
                             [("spp", v) for v in ALL_VARIANTS]
                             + [(p, "psa") for p in ("ppf", "bop", "vldp")])
    def test_stock_configurations_compile_one_runner(self, built, prefetcher,
                                                     variant):
        self.run(prefetcher=prefetcher, variant=variant)
        assert len(built) == 1

    @pytest.mark.parametrize("case", sorted(UNSUPPORTED))
    def test_unsupported_configurations_compile_none(self, built, case):
        result = self.run(**UNSUPPORTED[case])
        assert built == []
        assert result.memory_accesses == 300

    def test_invariant_checks_compile_none(self, built, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert self.run().memory_accesses == 300
        assert built == []

    def test_on_record_without_barrier_compiles_none(self, built):
        seen = []
        self.run(on_record=seen.append)
        assert built == []
        assert seen == list(range(600))

    def test_unpackable_addresses_fall_back_to_scalar(self, built):
        """Records outside the packed dtypes run — via the scalar loop."""
        records = [(0, (1 << 69) + 64 * i, KIND_LOAD, 2, False)
                   for i in range(50)]
        trace = Trace(name="huge", records=records, thp_fraction=0.0)
        metrics = simulate_trace(trace, prefetcher="spp", variant="psa")
        assert metrics.memory_accesses == 25   # measured half
        assert built == []

    def test_oracle_run_compiles_no_runner(self, built):
        """Under the differential oracle the hierarchy has an observer,
        so the run takes the reference loop — and the oracle passes."""
        trace = catalog()["mcf"].generate(1200)
        metrics = simulate_trace(trace, prefetcher="spp", variant="psa-sd",
                                 oracle=True)
        assert built == []
        assert metrics.oracle_report is not None
        assert metrics.oracle_report.ok
