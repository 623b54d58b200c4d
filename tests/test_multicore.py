"""Tests for repro.sim.multicore — shared-LLC/DRAM mixes."""

import contextlib
import dataclasses
import pickle

import pytest
from conftest import count_runners, reference_loop

from repro.sim import kernel, multicore, runner
from repro.sim.config import SCALE_ACCESSES, SystemConfig
from repro.sim.multicore import (
    MixResult,
    generate_mixes,
    isolation_ipcs,
    mix_weighted_speedup,
    mix_weighted_speedups,
    multicore_config,
    simulate_mix,
)
from repro.sim.runner import RunRequest
from repro.workloads.suites import WorkloadSpec, catalog

N = 2000

ALL_VARIANTS = ("none", "original", "psa", "psa-2mb", "psa-sd")
MIXES = {2: ("lbm", "mcf"), 4: ("milc", "omnetpp", "lbm", "soplex"),
         "twins": ("lbm", "lbm", "mcf", "mcf")}


class TestConfigScaling:
    def test_llc_scales_with_cores(self):
        base = SystemConfig()
        cfg = multicore_config(base, 4)
        assert cfg.llc.size_bytes == 4 * base.llc.size_bytes

    def test_dram_enlarged(self):
        cfg = multicore_config(SystemConfig(), 4)
        assert cfg.dram.size_bytes == 32 << 30
        assert cfg.dram.channels >= 4

    def test_same_dram_for_4_and_8_cores(self):
        """Table I / Section VI-C: identical DRAM for both core counts."""
        cfg4 = multicore_config(SystemConfig(), 4)
        cfg8 = multicore_config(SystemConfig(), 8)
        assert cfg4.dram == cfg8.dram

    def test_base_unmodified(self):
        base = SystemConfig()
        multicore_config(base, 8)
        assert base.llc.size_bytes == 2 << 20


class TestMixGeneration:
    def test_count_and_width(self):
        mixes = generate_mixes(5, 4)
        assert len(mixes) == 5
        assert all(len(m) == 4 for m in mixes)

    def test_deterministic(self):
        a = [[s.name for s in m] for m in generate_mixes(3, 4, seed=1)]
        b = [[s.name for s in m] for m in generate_mixes(3, 4, seed=1)]
        assert a == b

    def test_drawn_from_catalog(self):
        names = set(catalog())
        for mix in generate_mixes(3, 8):
            assert all(s.name in names for s in mix)


class TestSimulateMix:
    def test_runs_and_reports_per_core(self):
        cfg = multicore_config(SystemConfig(), 2)
        specs = [catalog()["lbm"], catalog()["mcf"]]
        result = simulate_mix(specs, cfg, "spp", "psa", n_accesses=N)
        assert len(result.ipcs) == 2
        assert all(ipc > 0 for ipc in result.ipcs)
        assert result.workloads == ["lbm", "mcf"]

    def test_contention_lowers_ipc(self):
        cfg = multicore_config(SystemConfig(), 2)
        specs = [catalog()["lbm"], catalog()["lbm"]]
        iso = isolation_ipcs([catalog()["lbm"]], cfg, "spp", "none",
                             n_accesses=N)[0]
        mixed = simulate_mix(specs, cfg, "spp", "none", n_accesses=N)
        assert max(mixed.ipcs) <= iso * 1.05

    def test_deterministic(self):
        cfg = multicore_config(SystemConfig(), 2)
        specs = [catalog()["lbm"], catalog()["milc"]]
        a = simulate_mix(specs, cfg, "spp", "psa", n_accesses=N)
        b = simulate_mix(specs, cfg, "spp", "psa", n_accesses=N)
        assert a.ipcs == b.ipcs


def _mix_state(cores, variant, monkeypatch, prefetcher="spp",
               warmup_fraction=0.5, n_accesses=900):
    """Run one mix; return (ipcs, pickled state of every core and
    hierarchy, shared LLC/DRAM included, runners built)."""
    built = count_runners(monkeypatch)
    specs = [catalog()[name] for name in MIXES[cores]]
    mixed, results = multicore._run_mix(
        specs, multicore_config(SystemConfig(), len(specs)), prefetcher,
        variant,
        n_accesses, warmup_fraction)
    state = pickle.dumps(mixed)
    return [r.ipc for r in results], state, len(built)


class TestFusedMixEquivalence:
    """The per-core compiled runners reproduce ``Core.step`` exactly."""

    @pytest.fixture(autouse=True)
    def no_invariants(self, monkeypatch):
        # Invariant checks take the reference loop, so they stay off here
        # even in a REPRO_CHECK=1 session.
        monkeypatch.delenv("REPRO_CHECK", raising=False)

    def check(self, monkeypatch, cores, variant, **kwargs):
        with reference_loop():
            ipcs, state, built = _mix_state(cores, variant, monkeypatch,
                                            **kwargs)
        assert built == 0
        fused_ipcs, fused_state, built = _mix_state(cores, variant,
                                                    monkeypatch, **kwargs)
        assert built == len(MIXES[cores]), "the mix took Core.step"
        assert fused_ipcs == ipcs
        assert fused_state == state, "model state diverged"

    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.5])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("cores", [2, 4])
    def test_spp_all_variants(self, monkeypatch, cores, variant,
                              warmup_fraction):
        self.check(monkeypatch, cores, variant,
                   warmup_fraction=warmup_fraction)

    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.5])
    @pytest.mark.parametrize("prefetcher", ["ppf", "vldp", "bop"])
    def test_other_prefetchers(self, monkeypatch, prefetcher,
                               warmup_fraction):
        self.check(monkeypatch, 4, "psa", prefetcher=prefetcher,
                   warmup_fraction=warmup_fraction)

    def test_runs_end_on_window_and_warmup_boundaries(self, monkeypatch):
        monkeypatch.setattr(multicore, "FEED_WINDOW", 7)
        self.check(monkeypatch, 2, "psa-sd", warmup_fraction=0.37,
                   n_accesses=401)

    @pytest.mark.parametrize("variant", ["original", "psa-sd"])
    def test_tied_clocks_keep_the_core_order(self, monkeypatch, variant):
        """Twin cores tie on their clocks; the lower index runs first."""
        self.check(monkeypatch, "twins", variant)

    def test_unsupported_core_falls_back_to_step(self, monkeypatch):
        specs = [catalog()[name] for name in MIXES[2]]
        config = multicore_config(SystemConfig(), 2)
        config = dataclasses.replace(config, tlb_prefetch=True)
        monkeypatch.setattr(kernel, "compile_runner", None)
        result = simulate_mix(specs, config, "spp", "psa", n_accesses=300)
        assert all(ipc > 0 for ipc in result.ipcs)


class TestMixWarmup:
    @pytest.mark.parametrize("reference", [True, False],
                             ids=["scalar", "auto"])
    @pytest.mark.parametrize("warmup_fraction", [1.0, 1.5])
    def test_warmup_past_the_end_measures_nothing(self, reference,
                                                  warmup_fraction):
        """As ``Core.run``: a warmup covering the whole trace leaves no
        measured instructions."""
        specs = [catalog()[name] for name in MIXES[2]]
        with reference_loop() if reference else contextlib.nullcontext():
            _, results = multicore._run_mix(
                specs, multicore_config(SystemConfig(), 2), "spp", "psa",
                300, warmup_fraction)
        assert [(r.instructions, r.memory_accesses, r.ipc)
                for r in results] == [(0, 0, 0.0)] * 2


class TestWeightedIPC:
    def test_weighted_ipc_formula(self):
        result = MixResult(workloads=["a", "b"], ipcs=[1.0, 2.0])
        assert result.weighted_ipc([2.0, 2.0]) == pytest.approx(1.5)

    def test_zero_isolation_guard(self):
        result = MixResult(workloads=["a"], ipcs=[1.0])
        assert result.weighted_ipc([0.0]) == 0.0

    def test_isolation_memo_keyed_by_full_config(self):
        """Configs that differ only outside the LLC/DRAM fields get
        separate memo entries."""
        cfg = multicore_config(SystemConfig(), 2)
        small_l2 = dataclasses.replace(
            cfg, l2c=dataclasses.replace(cfg.l2c,
                                         size_bytes=cfg.l2c.size_bytes // 8))
        specs = [catalog()["mcf"]]
        runner.clear_cache()
        memo_hits = runner.engine_stats().memo_hits
        first = isolation_ipcs(specs, cfg, "spp", "none", n_accesses=N)
        second = isolation_ipcs(specs, small_l2, "spp", "none",
                                n_accesses=N)
        assert runner.engine_stats().memo_hits == memo_hits
        assert second == isolation_ipcs(specs, small_l2, "spp", "none",
                                        n_accesses=N)
        assert first == isolation_ipcs(specs, cfg, "spp", "none",
                                       n_accesses=N)

    def test_isolation_memo_follows_repro_scale(self, monkeypatch):
        monkeypatch.setitem(SCALE_ACCESSES, "tiny", 600)
        monkeypatch.setitem(SCALE_ACCESSES, "small", 700)
        cfg = multicore_config(SystemConfig(), 2)
        specs = [catalog()["lbm"]]
        runner.clear_cache()
        memo_hits = runner.engine_stats().memo_hits
        ipcs = {}
        for scale in ("tiny", "small"):
            monkeypatch.setenv("REPRO_SCALE", scale)
            ipcs[scale] = isolation_ipcs(specs, cfg, "spp", "none")
        assert runner.engine_stats().memo_hits == memo_hits
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        runner.clear_cache()
        assert ipcs["tiny"] == isolation_ipcs(specs, cfg, "spp", "none")


@dataclasses.dataclass(frozen=True)
class _LoggedSpec(WorkloadSpec):
    """A catalog workload that appends its name to the file ``log``
    whenever a run builds its trace, in whichever process runs it."""

    log: str = ""

    def generate(self, n_accesses):
        with open(self.log, "a") as log:
            log.write(f"{self.name}\n")
        return super().generate(n_accesses)


class TestMixWeightedSpeedups:
    """The Figs. 14/15 driver: one batch of isolation runs, then mixes.

    ``MIXES`` under ``VARIANTS`` and the baseline make a batch of 4
    isolation runs (indices 0-3), then 6 mixes (4-9).
    """

    MIXES = (("lbm", "mcf"), ("milc", "soplex"))
    VARIANTS = ["psa", "psa-sd"]
    N = 600

    @pytest.fixture(autouse=True)
    def fresh_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        runner.clear_cache()
        runner.reset_engine_stats()
        yield
        runner.clear_cache()
        runner.reset_engine_stats()

    def speedups(self, monkeypatch, jobs):
        monkeypatch.setenv("REPRO_JOBS", str(jobs))
        return mix_weighted_speedups(
            self.mixes(), multicore_config(SystemConfig(), 2), "spp",
            self.VARIANTS, n_accesses=self.N)

    def mixes(self):
        return [[catalog()[name] for name in mix] for mix in self.MIXES]

    def test_pool_width_leaves_results_unchanged(self, monkeypatch):
        serial = self.speedups(monkeypatch, 1)
        assert self.speedups(monkeypatch, 2) == serial
        assert mix_weighted_speedup(
            self.mixes()[1], multicore_config(SystemConfig(), 2), "spp",
            "psa-sd", n_accesses=self.N) == serial["psa-sd"][1]

    def fresh_caches(self, monkeypatch, tmp_path, name):
        """An empty memo and disk cache, so every run is scheduled."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
        runner.clear_cache()
        runner.reset_engine_stats()

    def test_faults_reach_the_mix_tasks(self, monkeypatch, tmp_path):
        expected = self.speedups(monkeypatch, 1)
        self.fresh_caches(monkeypatch, tmp_path, "crash")
        monkeypatch.setenv("REPRO_FAULTS", "crash@5:first=1")
        assert self.speedups(monkeypatch, 2) == expected
        assert runner.engine_stats().pool_rebuilds >= 1
        self.fresh_caches(monkeypatch, tmp_path, "error")
        monkeypatch.setenv("REPRO_FAULTS", "error@4:first=1")
        assert self.speedups(monkeypatch, 2) == expected
        assert runner.engine_stats().retries == 1

    def test_kill_reaches_the_mix_tasks(self, monkeypatch):
        """``kill@i:at=N`` fires after the mix's N-th record; the retry
        gives the fault-free result."""
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")

        def one_mix():
            return mix_weighted_speedups(
                self.mixes()[:1], multicore_config(SystemConfig(), 2),
                "spp", self.VARIANTS, n_accesses=self.N)

        expected = one_mix()
        runner.clear_cache()
        runner.reset_engine_stats()
        # Runs 0 and 1 are the isolation runs: 2 is the first mix.
        monkeypatch.setenv("REPRO_FAULTS", "kill@2:at=10:first=1")
        assert one_mix() == expected
        assert runner.engine_stats().retries == 1

    def test_worker_death_reruns_only_unfinished_runs(self, monkeypatch,
                                                      tmp_path):
        expected = self.speedups(monkeypatch, 1)
        self.fresh_caches(monkeypatch, tmp_path, "logged")
        log = tmp_path / "generated"
        mixes = [[_LoggedSpec(**dataclasses.asdict(spec), log=str(log))
                  for spec in mix] for mix in self.mixes()]
        # The last mix kills its worker, after the 8 runs before it.
        monkeypatch.setenv("REPRO_FAULTS", "crash@9:first=1")
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert mix_weighted_speedups(
            mixes, multicore_config(SystemConfig(), 2), "spp",
            self.VARIANTS, n_accesses=self.N) == expected
        assert runner.engine_stats().pool_rebuilds >= 1
        # A clean batch builds 16 traces: one per isolation run and two
        # per mix.  The crashing attempt dies before it builds any.  A
        # death costs at most the two traces of the one mix in flight on
        # the other worker, and there are at most two deaths: the dying
        # worker's start report can be lost, leaving the crash uncharged
        # to fire again on the rebuilt pool.  Rerunning the 8 finished
        # runs would build 12 more.
        assert 16 <= len(log.read_text().split()) <= 16 + 2 * 2

    def test_warm_rerun_simulates_nothing(self, monkeypatch):
        expected = self.speedups(monkeypatch, 2)
        runner.clear_cache()
        runner.reset_engine_stats()
        assert self.speedups(monkeypatch, 2) == expected
        stats = runner.engine_stats()
        assert stats.simulated == 0
        assert stats.disk_hits == 10        # the 6 mixes are cached too

    def test_mix_rejects_a_field_it_cannot_honour(self):
        request = RunRequest(tuple(self.mixes()[0]), "spp", "psa",
                             l1d="ipcp", n_accesses=self.N,
                             config=multicore_config(SystemConfig(), 2))
        batch = runner.run_batch([request], jobs=1, strict=False)
        [outcome] = batch.outcomes
        assert outcome.failure.exc_type == "ValueError"
        assert outcome.attempts == 1
        assert runner.engine_stats().retries == 0
        assert "FAILED lbm+mcf/psa: error: ValueError" in (
            batch.describe_failures()[0])
        with pytest.raises(ValueError, match="l1d"):
            runner.run_batch([request], jobs=1)

    def test_a_listed_mix_is_the_tuple_mix(self):
        mix = self.mixes()[0]
        listed = RunRequest(mix, "spp", "psa", n_accesses=self.N)
        tupled = RunRequest(tuple(mix), "spp", "psa", n_accesses=self.N)
        assert listed.resolved() == tupled.resolved()
        assert listed.key() == tupled.key()
