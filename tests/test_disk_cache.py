"""Tests for the persistent on-disk run cache (repro.sim.cache).

Covers hit/miss/roundtrip behaviour, atomicity under concurrent writers,
corruption tolerance, invalidation on version bumps, and the
completeness of the automatically-derived configuration fingerprint.
"""

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.prefetch.base import BoundaryStats
from repro.sim import cache, faults, runner
from repro.sim.config import DuelingConfig, SystemConfig
from repro.sim.metrics import MixResult, RunMetrics
from repro.sim.runner import RunRequest, engine_stats, reset_engine_stats

N = 1200


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    runner.clear_cache()
    reset_engine_stats()
    yield tmp_path
    runner.clear_cache()


def sample_metrics() -> RunMetrics:
    metrics = RunMetrics(workload="lbm", prefetcher="spp", variant="psa",
                         ipc=2.5, instructions=1000, cycles=400.0,
                         l2_mpki=3.25, wall_time_s=0.5)
    metrics.boundary.proposed = 17
    metrics.boundary.discarded_cross_4k_in_2m = 5
    return metrics


KEY = ("run", "unit-test-key")


class TestRoundtrip:
    def test_store_then_load_equal(self):
        original = sample_metrics()
        assert cache.store(KEY, original)
        loaded = cache.load(KEY)
        assert loaded is not original
        assert loaded == original
        assert loaded.boundary.proposed == 17

    def test_wall_time_survives_but_does_not_affect_equality(self):
        original = sample_metrics()
        cache.store(KEY, original)
        loaded = cache.load(KEY)
        assert loaded.wall_time_s == 0.5
        loaded.wall_time_s = 99.0
        assert loaded == original      # compare=False field

    def test_absent_key_misses(self):
        assert cache.load(("run", "never-stored")) is None

    def test_unknown_payload_fields_ignored(self):
        cache.store(KEY, sample_metrics())
        path = cache.entry_path(KEY)
        payload = json.loads(path.read_text())
        payload["metrics"]["field_from_the_future"] = 1
        path.write_text(json.dumps(payload))
        assert cache.load(KEY) == sample_metrics()


class TestMixEntries:
    """A multi-core mix's ``MixResult`` is the cache's second payload
    shape, told apart by its ``ipcs`` key."""

    MIX = MixResult(workloads=["lbm", "mcf"], ipcs=[0.8125, 1.4375],
                    prefetcher="spp", variant="psa", wall_time_s=2.0)

    def test_roundtrip_check_list_and_quarantine(self):
        assert cache.store(KEY, self.MIX)
        loaded = cache.load(KEY)
        assert isinstance(loaded, MixResult)
        assert loaded == self.MIX
        path = cache.entry_path(KEY)
        assert cache.check(path) == "ok"
        assert [(e.workload, e.prefetcher, e.variant)
                for e in cache.list_entries()] == [("lbm+mcf", "spp", "psa")]
        faults.corrupt_file(path)
        assert cache.check(path) == "corrupt"
        assert cache.load(KEY) is None
        assert not path.exists()
        assert len(list(cache.quarantine_dir().glob("*.json"))) == 1

    def test_entry_without_prefetcher_and_variant_decodes(self):
        older = cache.metrics_from_dict({"workloads": ["lbm", "mcf"],
                                         "ipcs": [0.8125, 1.4375]})
        assert older == MixResult(["lbm", "mcf"], [0.8125, 1.4375])


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_healed(self):
        cache.store(KEY, sample_metrics())
        path = cache.entry_path(KEY)
        path.write_text("{ not json !!!")
        assert cache.load(KEY) is None
        assert not path.exists()       # bad entry dropped
        assert cache.store(KEY, sample_metrics())
        assert cache.load(KEY) is not None

    def test_truncated_entry_is_a_miss(self):
        cache.store(KEY, sample_metrics())
        path = cache.entry_path(KEY)
        path.write_text(path.read_text()[:20])
        assert cache.load(KEY) is None

    def test_version_bump_invalidates(self, monkeypatch):
        cache.store(KEY, sample_metrics())
        assert cache.load(KEY) is not None
        original_version = cache.CODE_VERSION
        monkeypatch.setattr(cache, "CODE_VERSION", "9999-future")
        assert cache.load(KEY) is None     # salted digest moved
        monkeypatch.setattr(cache, "CODE_VERSION", original_version)
        assert cache.load(KEY) is not None

    def test_payload_version_checked(self):
        cache.store(KEY, sample_metrics())
        path = cache.entry_path(KEY)
        payload = json.loads(path.read_text())
        payload["version"] = cache.CACHE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.load(KEY) is None

    def test_disable_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not cache.store(KEY, sample_metrics())
        assert cache.load(KEY) is None


class TestMaintenance:
    def test_stats_and_clear(self):
        for i in range(3):
            cache.store(("run", f"k{i}"), sample_metrics())
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert "entries   : 3" in stats.describe()
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_cli_cache_commands(self, capsys):
        from repro.cli import main
        cache.store(KEY, sample_metrics())
        assert main(["cache", "stats"]) == 0
        assert "entries   : 1" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cache entries" in capsys.readouterr().out
        assert cache.stats().entries == 0


class TestQuarantine:
    """Satellite: bad entries are quarantined (auditable), not silently
    deleted, and `repro cache verify` finds them."""

    def test_corrupt_entry_quarantined_on_load(self):
        cache.store(KEY, sample_metrics())
        path = cache.entry_path(KEY)
        path.write_text("{ not json !!!")
        assert cache.load(KEY) is None
        assert not path.exists()
        moved = list(cache.quarantine_dir().glob("*.json"))
        assert len(moved) == 1
        assert moved[0].read_text() == "{ not json !!!"

    def test_repeat_quarantine_never_overwrites(self):
        # The same entry going bad repeatedly must keep every piece of
        # quarantined evidence — name collisions probe for a free name
        # instead of os.replace silently clobbering the earlier file.
        for generation in range(3):
            cache.store(KEY, sample_metrics())
            path = cache.entry_path(KEY)
            path.write_text(f"garbage {generation}")
            assert cache.load(KEY) is None
        moved = list(cache.quarantine_dir().glob("*.json"))
        assert len(moved) == 3
        assert ({p.read_text() for p in moved}
                == {"garbage 0", "garbage 1", "garbage 2"})

    def test_verify_classifies_without_touching(self):
        cache.store(("run", "good"), sample_metrics())
        cache.store(("run", "bad"), sample_metrics())
        cache.entry_path(("run", "bad")).write_text("garbage")
        stale_path = cache.entry_path(("run", "old"))
        cache.store(("run", "old"), sample_metrics())
        payload = json.loads(stale_path.read_text())
        payload["salt"] = "0:ancient"
        stale_path.write_text(json.dumps(payload))

        report = cache.verify()
        assert report.scanned == 3
        assert report.ok == 1
        assert report.corrupt == 1
        assert report.stale == 1
        assert not report.quarantined
        assert cache.stats().entries == 3      # nothing moved yet
        assert "--prune" in report.describe()

    def test_verify_prune_quarantines(self):
        cache.store(("run", "good"), sample_metrics())
        cache.store(("run", "bad"), sample_metrics())
        cache.entry_path(("run", "bad")).write_text("garbage")
        cache.store(("run", "torn"), sample_metrics())
        torn = cache.entry_path(("run", "torn"))
        torn.write_text(torn.read_text()[:15])

        report = cache.verify(prune=True)
        assert report.corrupt == 2
        assert len(report.quarantined) == 2
        assert cache.stats().entries == 1      # only the good entry left
        assert cache.load(("run", "good")) is not None
        assert len(list(cache.quarantine_dir().glob("*.json"))) == 2

    def test_cli_cache_verify(self, capsys):
        from repro.cli import main
        cache.store(KEY, sample_metrics())
        cache.entry_path(KEY).write_text("broken")
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "corrupt   : 1" in out
        assert main(["cache", "verify", "--prune"]) == 0
        assert "quarantined 1 entries" in capsys.readouterr().out
        assert main(["cache", "verify"]) == 0   # cache is clean now
        assert "corrupt   : 0" in capsys.readouterr().out


class TestTmpOrphans:
    """Satellite: crashed writers leak ``*.tmp`` files forever unless
    ``verify --prune`` sweeps them; live writers' temps must be kept."""

    def _leak(self, age_s=1000.0, name="leak.tmp"):
        cache.store(KEY, sample_metrics())
        orphan = cache.entry_path(KEY).parent / name
        orphan.write_text("half a write from a crashed proc")
        old = time.time() - age_s
        os.utime(orphan, (old, old))
        return orphan

    def test_verify_reports_orphans_without_prune(self):
        orphan = self._leak()
        report = cache.verify()
        assert report.tmp_orphans == 1
        assert report.tmp_removed == 0
        assert orphan.exists()
        assert "1 orphaned" in report.describe()

    def test_prune_removes_old_orphans_keeps_live_temps(self):
        orphan = self._leak()
        live = self._leak(age_s=0.0, name="inflight.tmp")
        report = cache.verify(prune=True)
        assert report.tmp_orphans == 1 and report.tmp_removed == 1
        assert not orphan.exists()
        assert live.exists()           # younger than TMP_ORPHAN_AGE_S
        assert cache.load(KEY) == sample_metrics()   # entries untouched

    def test_verify_counts_quarantine_contents(self):
        cache.store(KEY, sample_metrics())
        cache.entry_path(KEY).write_text("garbage")
        assert cache.load(KEY) is None          # quarantines
        report = cache.verify()
        assert report.quarantine_entries == 1
        assert "quarantine: 1 entries" in report.describe()

    def test_cli_verify_exit_1_on_orphans(self, capsys):
        from repro.cli import main
        self._leak()
        assert main(["cache", "verify"]) == 1
        assert "1 orphaned" in capsys.readouterr().out
        assert main(["cache", "verify", "--prune"]) == 0
        capsys.readouterr()
        assert main(["cache", "verify"]) == 0

    def test_store_leaves_no_temp_behind(self):
        for i in range(5):
            cache.store(("run", f"k{i}"), sample_metrics())
        objects = cache.cache_dir() / "objects"
        assert not list(objects.glob("*/*.tmp"))


class TestFingerprintCompleteness:
    """Every configuration field must widen the key (satellite fix: the old
    hand-written fingerprint omitted geometry/latency/core fields)."""

    def mutations(self):
        base = SystemConfig()
        yield dataclasses.replace(base, rob_entries=128)
        yield dataclasses.replace(base, fetch_width=6)
        yield dataclasses.replace(base, pwc_entries=64)
        yield dataclasses.replace(base, tlb_prefetch=True)
        yield base.scaled_llc(1 << 20)
        yield base.scaled_l2c_mshr(8)
        yield base.scaled_dram(800)
        llc_slow = dataclasses.replace(base)
        llc_slow.llc = dataclasses.replace(base.llc, latency=33)
        yield llc_slow
        l1d_small = dataclasses.replace(base)
        l1d_small.l1d = dataclasses.replace(base.l1d, size_bytes=24 << 10,
                                            ways=6)
        yield l1d_small
        stlb = dataclasses.replace(base)
        stlb.stlb = dataclasses.replace(base.stlb, entries=768)
        yield stlb
        dram_rows = dataclasses.replace(base)
        dram_rows.dram = dataclasses.replace(base.dram, row_bytes=4096)
        yield dram_rows
        yield dataclasses.replace(base, num_page_sizes=3)
        yield dataclasses.replace(
            base, dueling=DuelingConfig(leader_sets=16))

    def test_every_field_changes_the_key(self):
        base_key = RunRequest("lbm", config=SystemConfig(),
                              n_accesses=N).key()
        keys = {base_key}
        for mutated in self.mutations():
            key = RunRequest("lbm", config=mutated, n_accesses=N).key()
            assert key not in keys, f"fingerprint collision for {mutated}"
            keys.add(key)
        # ... and the digests differ too.
        digests = {cache.key_digest(k) for k in keys}
        assert len(digests) == len(keys)

    def test_dueling_override_in_key(self):
        plain = RunRequest("lbm", variant="psa-sd", n_accesses=N).key()
        overridden = RunRequest("lbm", variant="psa-sd", n_accesses=N,
                                dueling=DuelingConfig(csel_bits=5)).key()
        assert plain != overridden

    def test_explicit_default_dueling_collapses(self):
        # dueling=None resolves to config.dueling: same effective run,
        # same key, no redundant simulation.
        assert (RunRequest("lbm", n_accesses=N).key()
                == RunRequest("lbm", n_accesses=N,
                              dueling=DuelingConfig()).key())

    def test_override_and_config_dueling_share_one_key(self):
        # A dueling= override and the same setting in config.dueling are
        # one simulation: one key, simulated once per batch.
        duel = DuelingConfig(policy="standard", csel_bits=5)
        override = RunRequest("lbm", variant="psa-sd", n_accesses=N,
                              dueling=duel)
        in_config = RunRequest("lbm", variant="psa-sd", n_accesses=N,
                               config=SystemConfig(dueling=duel))
        assert override.key() == in_config.key()
        reset_engine_stats()
        first, second = runner.run_batch([override, in_config], jobs=1)
        assert first is second
        assert engine_stats().simulated == 1
        assert engine_stats().deduped == 1


class TestPinnedDigests:
    """Content addresses of five requests, pinned: a run-key change of
    any kind, on purpose or not, orphans every cache entry and must show
    up here, next to a ``CODE_VERSION`` bump."""

    PINNED = {
        "single": "c72a79319db33830daf674e7df64d57b"
                  "fd4b37e17846ac3686f1e34d1c097ff6",
        "dueling": "d33836bd3107566ccf5cb2d1da28cb1c"
                   "4d0b4d1bfe6961514ec3a235c27e250b",
        "campaign": "e590d9e9fe5375fc1a06dd31f488f32a"
                    "4d00aac90a021265a8be126bf92f2847",
        "mix": "2c9df06ca13d07a834a3cf738d9a117a"
               "733550fce986439d60357d585f602f48",
        "scaled": "04d524089812d01d1197eee81773240d"
                  "5dfe9772263073d84666a6f7f926d59e",
    }

    @staticmethod
    def requests():
        from repro.campaign.grid import Campaign
        from repro.sim.multicore import multicore_config
        from repro.workloads.suites import catalog

        specs = catalog()
        duel = DuelingConfig(leader_sets=16, csel_bits=4, policy="standard")
        return {
            "single": RunRequest("lbm", "spp", "psa", n_accesses=2000),
            "dueling": RunRequest("mcf", "spp", "psa-sd", n_accesses=2000,
                                  dueling=duel),
            "campaign": Campaign(
                "pin", axes={"workload": ["milc"],
                             "llc.size_bytes": [1 << 20]},
                fixed={"variant": "psa", "n_accesses": 3000},
            ).cells()[0].request,
            "mix": RunRequest((specs["lbm"], specs["mcf"]), "spp", "psa-sd",
                              n_accesses=1500,
                              config=multicore_config(SystemConfig(), 2)),
            "scaled": RunRequest("omnetpp", "spp", "original",
                                 n_accesses=2500, table_scale=0.5,
                                 gb_fraction=0.25),
        }

    def test_digests_are_pinned(self):
        actual = {name: cache.key_digest(request.key())
                  for name, request in self.requests().items()}
        assert actual == self.PINNED

    def test_both_dueling_spellings_hit_the_pin(self):
        duel = self.requests()["dueling"].dueling
        in_config = RunRequest("mcf", "spp", "psa-sd", n_accesses=2000,
                               config=SystemConfig(dueling=duel))
        assert cache.key_digest(in_config.key()) == self.PINNED["dueling"]

    def test_a_held_digest_finds_the_same_entry(self):
        key = self.requests()["single"].key()
        cache.store(key, sample_metrics())
        digest = cache.key_digest(key)
        assert cache.entry_path(key, digest) == cache.entry_path(key)
        assert cache.load_payload(key, digest) == cache.load_payload(key)
        assert cache.load(key, digest).ipc == sample_metrics().ipc


class TestEngineIntegration:
    def test_run_populates_disk_and_serves_from_it(self):
        first = runner.run("lbm", "spp", "psa", n_accesses=N)
        assert cache.stats().entries == 1
        runner.clear_cache()
        reset_engine_stats()
        second = runner.run("lbm", "spp", "psa", n_accesses=N)
        assert engine_stats().disk_hits == 1
        assert engine_stats().simulated == 0
        assert second == first

    def test_uncached_run_bypasses_disk(self):
        runner.run("lbm", "spp", "psa", n_accesses=N, use_cache=False)
        assert cache.stats().entries == 0


def _writer(args):
    directory, worker_id = args
    os.environ["REPRO_CACHE_DIR"] = directory
    metrics = sample_metrics()
    metrics.instructions = worker_id      # different payloads, same keys
    for round_index in range(25):
        cache.store(("run", "contended"), metrics)
        cache.store(("run", f"own-{worker_id}", round_index), metrics)
    return cache.load(("run", "contended")) is not None


class TestConcurrentWriters:
    def test_parallel_writers_never_corrupt(self, isolated_cache):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            results = pool.map(
                _writer, [(str(isolated_cache), i) for i in range(4)])
        assert all(results)
        # The contended entry is one intact payload from *some* writer.
        loaded = cache.load(("run", "contended"))
        assert loaded is not None
        assert loaded.instructions in range(4)
        # Every entry on disk parses cleanly.
        stats = cache.stats()
        assert stats.entries == 1 + 4 * 25
        for path in (isolated_cache / "objects").glob("*/*.json"):
            json.loads(path.read_text())


def _same_key_writer(args):
    """Child entry: hammer one key; exit code reports store success."""
    directory, worker_id, rounds = args
    os.environ["REPRO_CACHE_DIR"] = directory
    metrics = sample_metrics()
    metrics.instructions = worker_id
    return all(cache.store(("run", "same-key"), metrics)
               for _ in range(rounds))


class TestSameKeyRace:
    """Satellite: two processes storing the *same* key while a reader
    polls it.  Atomic publish means the reader sees nothing or one
    writer's complete payload — never torn JSON — and the final entry is
    last-writer-wins intact."""

    ROUNDS = 40

    def test_reader_never_sees_torn_json(self, isolated_cache):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            async_result = pool.map_async(
                _same_key_writer,
                [(str(isolated_cache), worker_id, self.ROUNDS)
                 for worker_id in (7, 8)])
            observed = set()
            while not async_result.ready():
                loaded = cache.load(("run", "same-key"))
                if loaded is not None:
                    observed.add(loaded.instructions)
            assert all(async_result.get())
        # Every successful read was one writer's complete payload.
        assert observed <= {7, 8}
        # A torn read would have been quarantined: prove none ever was.
        assert cache.quarantine_dir().exists() is False \
            or not list(cache.quarantine_dir().iterdir())
        final = cache.load(("run", "same-key"))
        assert final is not None and final.instructions in (7, 8)
        # Exactly one object on disk, parsing cleanly (last writer won).
        assert cache.stats().entries == 1
        (path,) = (isolated_cache / "objects").glob("*/*.json")
        json.loads(path.read_text())
        # No writer temp files leaked by either process.
        assert not list((isolated_cache / "objects").glob("*/*.tmp"))
