"""Incremental campaign execution: completion, resume-with-zero-
re-simulation, bitwise equivalence of interrupted vs uninterrupted
sweeps, failure recording, and the EngineStats snapshot."""

import dataclasses

import pytest

from repro.campaign.grid import Campaign
from repro.campaign.store import CampaignStore
from repro.campaign.execute import run_missing
from repro.sim import runner
from repro.sim.runner import (
    EngineStats,
    engine_stats,
    reset_engine_stats,
    run_batch,
)


def tiny_campaign(n_accesses=1200):
    return Campaign(name="run-t",
                    axes={"workload": ["lbm", "milc"],
                          "variant": ["original", "psa"]},
                    fixed={"prefetcher": "spp",
                           "n_accesses": n_accesses})


@pytest.fixture
def store(tmp_path):
    with CampaignStore(tmp_path / "campaigns.sqlite") as s:
        yield s


class TestRunMissing:
    def test_completes_and_reports(self, store):
        campaign = tiny_campaign()
        report = run_missing(campaign, store=store, jobs=1)
        assert report.complete
        assert report.total == 4
        assert report.synced + report.ok == 4 - report.done_before
        assert store.status(campaign).complete
        assert report.cells_per_sec > 0
        assert "4/4 cells done" in report.describe()

    def test_second_run_schedules_nothing(self, store):
        campaign = tiny_campaign()
        run_missing(campaign, store=store, jobs=1)
        report = run_missing(campaign, store=store, jobs=1)
        assert report.complete
        assert report.scheduled == 0 and report.ok == 0
        assert report.done_before == 4

    def test_new_store_resumes_from_disk_cache(self, tmp_path, store):
        # A lost/deleted sqlite store is rebuilt from the cache alone.
        campaign = tiny_campaign(n_accesses=1210)
        run_missing(campaign, store=store, jobs=1)
        runner.clear_cache()   # drop the memo: force the disk path
        with CampaignStore(tmp_path / "second.sqlite") as second:
            report = run_missing(campaign, store=second, jobs=1)
            assert report.complete
            assert report.scheduled == 0
            assert report.synced == 4

    def test_records_engine_stats(self, store):
        campaign = tiny_campaign(n_accesses=1220)
        run_missing(campaign, store=store, jobs=1)
        rows = store.engine_stats_rows(campaign.campaign_id)
        assert rows and "cache_hit_rate" in rows[0]


class TestKillResume:
    """The acceptance scenario: a sweep interrupted after a prefix of
    cells and resumed must be bitwise-identical to an uninterrupted
    serial sweep, with zero re-simulated cells."""

    def test_resumed_equals_uninterrupted(self, tmp_path, monkeypatch):
        campaign = tiny_campaign(n_accesses=1230)
        cells = campaign.cells()

        # Uninterrupted serial sweep in its own cache universe.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cacheA"))
        runner.clear_cache()
        with CampaignStore(tmp_path / "a.sqlite") as store_a:
            report = run_missing(campaign, store=store_a, jobs=1)
            assert report.complete and report.ok == 4
            rows_a = store_a.speedup_rows(campaign)

        # Interrupted sweep: only a prefix of cells finished before the
        # "kill" (their results are already on disk — exactly the state
        # run_batch's per-completion checkpointing leaves behind).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cacheB"))
        runner.clear_cache()
        run_batch([cells[0].request, cells[1].request], jobs=1)
        runner.clear_cache()
        with CampaignStore(tmp_path / "b.sqlite") as store_b:
            report = run_missing(campaign, store=store_b, jobs=1)
            assert report.complete
            assert report.synced == 2        # the prefix: never re-run
            assert report.scheduled == 2     # only the remainder
            rows_b = store_b.speedup_rows(campaign)

        # Bitwise equality, not approx: identical floats or bust.
        assert rows_a == rows_b


class TestFailures:
    def test_failed_cell_recorded_and_retried(self, store, monkeypatch):
        campaign = tiny_campaign(n_accesses=1240)
        monkeypatch.setenv("REPRO_FAULTS", "crash@0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        report = run_missing(campaign, store=store, jobs=1, retries=0)
        assert not report.complete
        assert report.failed == 1 and report.ok == 3
        assert len(report.failures) == 1
        assert "FAILED" in report.describe()
        statuses = store.done_indices(campaign.campaign_id)
        assert sorted(statuses.values()) == ["failed", "ok", "ok", "ok"]

        # Heal the fault: the next invocation retries only the failure.
        monkeypatch.delenv("REPRO_FAULTS")
        report = run_missing(campaign, store=store, jobs=1)
        assert report.complete
        assert report.scheduled == 1
        assert store.status(campaign).complete


class TestStoreFaults:
    def test_store_write_faults_are_counted_not_raised(self, store):
        # Every sqlite write fails; the sweep still completes (the disk
        # cache is the ground truth) and a later healthy sync converges
        # the store with zero re-simulation.
        from repro.sim import iofaults
        campaign = tiny_campaign(n_accesses=1250)
        store.register(campaign)            # registered while healthy
        iofaults.arm("eio:site=store.commit")
        try:
            report = run_missing(campaign, store=store, jobs=1)
        finally:
            iofaults.disarm()
        assert report.ok == 4 and report.failed == 0 and report.complete
        # register + 4 results + the engine-stats row
        assert report.store_errors == 6
        assert "6 store write(s) failed" in report.describe()
        assert not store.status(campaign).complete   # rows lost...
        assert store.sync_from_cache(campaign) == 4  # ...and recovered
        assert store.status(campaign).complete


class TestSubmitBody:
    def test_body_digest_is_the_cell_digest(self):
        from repro.serve import protocol
        mixed = Campaign(name="body-t",
                         axes={"workload": ["lbm", "milc"],
                               "llc.size_bytes": [1 << 20, 2 << 20],
                               "variant": ["original", "psa"]},
                         fixed={"prefetcher": "spp",
                                "ppm_enabled": False})
        scaled = Campaign(name="scaled-t",
                          axes={"workload": ["lbm"],
                                "table_scale": [0.5, 2.0, 1, 2],
                                "gb_fraction": [0.0, 0.25, 0, 1]},
                          fixed={"prefetcher": "spp", "variant": "psa"})
        cells = mixed.cells() + tiny_campaign().cells() + scaled.cells()
        for cell in cells:
            # One parser on both sides: an int table_scale or
            # gb_fraction names the float's address in a cell too.
            assert protocol.request_digest(cell.submit_body()) \
                == cell.digest, cell.params
        assert mixed.cells()[0].submit_body()["config"] == {
            "ppm_enabled": False, "llc.size_bytes": 1 << 20}


class TestEngineStatsDict:
    def test_to_dict_mirrors_counters(self):
        stats = EngineStats(requests=10, deduped=2, memo_hits=3,
                            disk_hits=1, simulated=4,
                            simulated_accesses=4000, sim_wall_s=2.0)
        data = stats.to_dict()
        for f in dataclasses.fields(EngineStats):
            assert data[f.name] == getattr(stats, f.name)
        assert data["cache_hits"] == stats.cache_hits
        assert data["cache_hit_rate"] == stats.cache_hit_rate
        assert data["accesses_per_sec"] == stats.accesses_per_sec

    def test_process_stats_roundtrip_json(self):
        import json
        reset_engine_stats()
        json.dumps(engine_stats().to_dict())   # must be JSON-safe
