"""Tests for ``repro doctor`` (repro.sim.doctor): the one-command
scan-and-heal pass over cache + snapshots + campaign store + member records,
its CLI verb, and the serve-startup healing wire-up.
"""

import json
import os
import time

import pytest

from repro.campaign.grid import Campaign
from repro.campaign.store import CampaignStore, store_path
from repro.sim import cache, doctor, iofaults, runner
from repro.sim import snapshot as snapshot_store

from conftest import tiny_campaign
from test_disk_cache import KEY, sample_metrics


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
    monkeypatch.delenv("REPRO_CAMPAIGN_DB", raising=False)
    monkeypatch.delenv("REPRO_IO_FAULTS", raising=False)
    runner.clear_cache()
    iofaults.disarm()
    yield tmp_path
    iofaults.disarm()
    runner.clear_cache()


def _age(path, seconds=1000):
    old = time.time() - seconds
    os.utime(path, (old, old))


def damage_cache(tmp_path):
    """Corrupt entry + stale entry + orphaned temp file."""
    cache.store(("run", "good"), sample_metrics())
    cache.store(("run", "bad"), sample_metrics())
    cache.entry_path(("run", "bad")).write_text("{ torn!")
    cache.store(("run", "old"), sample_metrics())
    stale_path = cache.entry_path(("run", "old"))
    payload = json.loads(stale_path.read_text())
    payload["salt"] = "0:ancient"
    stale_path.write_text(json.dumps(payload))
    orphan = cache.entry_path(("run", "good")).parent / "leak.tmp"
    orphan.write_text("half a wri")
    _age(orphan)
    return orphan


class TestCleanUniverse:
    def test_clean_report(self):
        report = doctor.diagnose()
        assert report.clean and report.healthy
        assert report.findings == []
        assert "clean" in report.summary()

    def test_intact_state_is_untouched(self):
        cache.store(KEY, sample_metrics())
        snapshot_store.store(KEY, 5, {"c": 1})
        report = doctor.diagnose(repair=True)
        assert report.clean
        assert cache.load(KEY) == sample_metrics()
        assert snapshot_store.load(KEY) == (5, {"c": 1})


class TestCacheHealing:
    def test_scan_only_reports_without_touching(self, tmp_path):
        orphan = damage_cache(tmp_path)
        report = doctor.diagnose(repair=False)
        assert report.count("cache", "corrupt") == 1
        assert report.count("cache", "stale") == 1
        assert report.count("cache", "tmp-orphan") == 1
        assert not report.healthy
        assert cache.stats().entries == 3       # nothing moved
        assert orphan.exists()

    def test_repair_heals_to_clean(self, tmp_path):
        orphan = damage_cache(tmp_path)
        report = doctor.diagnose(repair=True)
        assert report.healthy and not report.clean
        assert all(f.repaired for f in report.findings)
        assert not orphan.exists()
        # Quarantine holds the evidence; verify comes back clean.
        assert len(list(cache.quarantine_dir().glob("*.json"))) == 2
        after = cache.verify()
        assert after.corrupt == 0 and after.stale == 0
        assert after.tmp_orphans == 0
        assert doctor.diagnose().clean
        assert cache.load(("run", "good")) == sample_metrics()

    def test_young_tmp_is_a_live_writer_not_an_orphan(self):
        cache.store(KEY, sample_metrics())
        young = cache.entry_path(KEY).parent / "inflight.tmp"
        young.write_text("still being written")
        report = doctor.diagnose(repair=True)
        assert report.count("cache", "tmp-orphan") == 0
        assert young.exists()


class TestSnapshotHealing:
    def test_torn_snapshot_quarantined_stale_unlinked(self):
        snapshot_store.store(("run", "torn"), 5, {"c": 1})
        torn = snapshot_store.snapshot_path(("run", "torn"))
        torn.write_bytes(torn.read_bytes()[:-20])
        snapshot_store.store(("run", "stale"), 5, {"c": 1})
        stale = snapshot_store.snapshot_path(("run", "stale"))
        raw = stale.read_bytes()
        newline = raw.index(b"\n", len(snapshot_store.MAGIC))
        header = json.loads(raw[len(snapshot_store.MAGIC):newline])
        header["salt"] = "0:ancient:0"
        stale.write_bytes(snapshot_store.MAGIC
                          + json.dumps(header).encode() + b"\n"
                          + raw[newline + 1:])
        orphan = torn.parent / "leak.tmp"
        orphan.write_bytes(b"xx")
        _age(orphan)

        report = doctor.diagnose(repair=True)
        assert report.count("snapshot", "corrupt") == 1
        assert report.count("snapshot", "stale") == 1
        assert report.count("snapshot", "tmp-orphan") == 1
        assert report.healthy
        assert not torn.exists() and not stale.exists()
        assert not orphan.exists()
        assert len(list(
            snapshot_store.quarantine_dir().glob("*.snap"))) == 1
        assert doctor.diagnose().clean


def register_unparsed(campaign):
    """Register *campaign* as an older version did, without parsing its
    cells, with one failed result row."""
    with CampaignStore() as store, store._conn as conn:
        conn.execute(
            "INSERT INTO campaigns (campaign_id, name, spec_json, "
            "created_at) VALUES (?, ?, ?, ?)",
            (campaign.campaign_id, campaign.name,
             json.dumps(campaign.to_dict(), sort_keys=True), time.time()))
        conn.execute(
            "INSERT INTO results (campaign_id, cell_index, digest, status, "
            "recorded_at) VALUES (?, 1, 'lmb', 'failed', ?)",
            (campaign.campaign_id, time.time()))


TYPO = Campaign(name="typo", axes={"workload": ["lbm", "lmb"]},
                fixed={"n_accesses": 1430})


class TestStoreHealing:
    def test_typo_campaign_is_a_bad_spec_and_keeps_its_rows(self, capsys):
        from repro.cli import main

        register_unparsed(TYPO)
        report = doctor.diagnose(repair=True)
        (finding,) = [f for f in report.findings if f.layer == "store"]
        assert finding.kind == "bad-spec" and not finding.repaired
        assert "unknown workload 'lmb'" in finding.detail
        with CampaignStore() as store:
            assert store.done_indices(TYPO.campaign_id) == {1: "failed"}
        assert main(["doctor", "--repair"]) == 1   # reported, not raised
        assert "bad-spec" in capsys.readouterr().out

    def test_divergence_is_synced_from_cache(self):
        campaign = tiny_campaign(n_accesses=1410)
        with CampaignStore() as store:
            cells = store.register(campaign)
        for cell in cells:
            assert cache.store(cell.key, sample_metrics())
        report = doctor.diagnose(repair=False)
        (finding,) = [f for f in report.findings if f.layer == "store"]
        assert finding.kind == "divergence"
        assert f"{len(cells)} cache-resident" in finding.detail

        report = doctor.diagnose(repair=True)
        assert report.healthy
        with CampaignStore() as store:
            assert store.status(campaign).complete
        assert doctor.diagnose().clean

    def test_corrupt_database_moved_aside(self):
        with CampaignStore() as store:
            store.register(tiny_campaign(n_accesses=1420))
        db = store_path()
        db.write_bytes(b"this is no sqlite database at all" * 64)
        report = doctor.diagnose(repair=True)
        (finding,) = [f for f in report.findings if f.layer == "store"]
        assert finding.kind == "corrupt" and finding.repaired
        assert not db.exists()
        assert list(db.parent.glob("campaigns.sqlite.corrupt.*"))
        # The next writer rebuilds from scratch.
        with CampaignStore() as store:
            assert store.campaigns() == []
        assert doctor.diagnose().clean

    def test_absent_store_is_clean(self):
        report = doctor.diagnose()
        assert report.scanned["store"] == 0 and report.clean


def damage_universe():
    """Torn, stale-salt and body-corrupt files in both the cache and
    the snapshot store, plus an aged writer temp file in each."""
    damage_cache(cache.cache_dir())
    cache.store(("run", "body"), sample_metrics())
    body = cache.entry_path(("run", "body"))
    payload = json.loads(body.read_text())
    payload["metrics"] = ["not", "a", "metrics", "dict"]
    body.write_text(json.dumps(payload))

    magic = snapshot_store.MAGIC
    for name in ("good", "torn", "stale", "body"):
        snapshot_store.store(("run", name), 5, {"c": name})
    torn = snapshot_store.snapshot_path(("run", "torn"))
    raw = torn.read_bytes()
    torn.write_bytes(raw[:raw.index(b"\n", len(magic)) - 5])
    stale = snapshot_store.snapshot_path(("run", "stale"))
    raw = stale.read_bytes()
    newline = raw.index(b"\n", len(magic))
    header = json.loads(raw[len(magic):newline])
    header["salt"] = "0:ancient:0"
    stale.write_bytes(magic + json.dumps(header).encode()
                      + raw[newline:])
    body = snapshot_store.snapshot_path(("run", "body"))
    data = bytearray(body.read_bytes())
    data[-1] ^= 0xFF
    body.write_bytes(bytes(data))
    orphan = torn.parent / "leak.tmp"
    orphan.write_bytes(b"half a snap")
    _age(orphan)


def universe_files(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestOneDamageOneDisposition:
    def test_verify_and_prune_match_the_doctor(self, tmp_path,
                                               monkeypatch):
        by_commands, by_doctor = tmp_path / "commands", tmp_path / "doctor"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(by_commands))
        damage_universe()
        verify = cache.verify(prune=True)
        pruned = snapshot_store.prune()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(by_doctor))
        damage_universe()
        report = doctor.diagnose(repair=True)

        assert report.healthy
        # Same files everywhere, quarantines included, byte for byte.
        assert universe_files(by_commands) == universe_files(by_doctor)
        assert (verify.corrupt, verify.stale, verify.tmp_orphans) == (
            report.count("cache", "corrupt"), report.count("cache", "stale"),
            report.count("cache", "tmp-orphan")) == (2, 1, 1)
        assert verify.scanned == report.scanned["cache"] == 4
        assert pruned == report.count("snapshot") == 4
        assert report.count("snapshot", "corrupt") == 2
        assert report.quarantine == {"cache": 3, "snapshot": 2}


class TestDoctorUnderFaults:
    def test_diagnose_disarms_the_shim_and_restores_it(self):
        damage_cache(cache.cache_dir())
        iofaults.arm("eio:site=cache")
        report = doctor.diagnose(repair=True)
        assert report.healthy          # armed faults cannot sabotage it
        # The arming survives the doctor pass.
        assert cache.store(KEY, sample_metrics()) is False
        iofaults.disarm()
        assert cache.store(KEY, sample_metrics()) is True


class TestDoctorCLI:
    def test_exit_codes_scan_then_repair(self, tmp_path, capsys):
        from repro.cli import main
        damage_cache(tmp_path)
        assert main(["doctor"]) == 1            # findings, unrepaired
        out = capsys.readouterr().out
        assert "cache" in out and "findings" in out
        assert main(["doctor", "--repair"]) == 0
        assert "repaired" in capsys.readouterr().out
        assert main(["doctor"]) == 0            # clean now
        assert "clean" in capsys.readouterr().out

    def test_json_report_and_out_file(self, tmp_path, capsys):
        from repro.cli import main
        damage_cache(tmp_path)
        out_path = tmp_path / "report.json"
        assert main(["doctor", "--repair", "--json",
                     "--out", str(out_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        archived = json.loads(out_path.read_text())
        assert printed == archived
        assert archived["healthy"] is True
        assert archived["clean"] is False
        kinds = {(f["layer"], f["kind"]) for f in archived["findings"]}
        assert ("cache", "corrupt") in kinds
        assert ("cache", "tmp-orphan") in kinds

    def test_bad_spec_env_is_a_configuration_error(self, monkeypatch):
        # A garbage REPRO_IO_FAULTS is an operator error surfaced at
        # the first hook as a ConfigurationError (the CLI maps those
        # to exit 2; the supervisor never mistakes them for a
        # simulation failure).
        from repro.sim.config import ConfigurationError
        monkeypatch.setenv("REPRO_IO_FAULTS", "not-a-kind")
        iofaults.disarm()
        with pytest.raises(ConfigurationError):
            cache.store(KEY, sample_metrics())


class TestServeStartupHealing:
    def test_restarted_daemon_heals_before_admitting(self, tmp_path):
        from repro.serve.app import start_in_thread
        damage_cache(tmp_path)
        handle = start_in_thread(port=0, queue_depth=8, quota=0)
        try:
            report = handle.app.doctor_report
            assert report is not None and report.healthy
            assert report.count("cache", "corrupt") == 1
        finally:
            handle.stop()
        assert doctor.diagnose().clean

    def test_daemon_starts_on_a_store_with_a_typo_campaign(self):
        from repro.serve.app import start_in_thread
        from repro.serve.client import ServeClient
        register_unparsed(TYPO)
        handle = start_in_thread(port=0, queue_depth=8, quota=0)
        try:
            assert handle.app.doctor_report.count("store", "bad-spec") == 1
            with ServeClient(port=handle.port) as client:
                assert client.healthz().ok
        finally:
            handle.stop()

    def test_heal_on_start_opt_out(self, tmp_path):
        from repro.serve.app import start_in_thread
        orphan = damage_cache(tmp_path)
        handle = start_in_thread(port=0, queue_depth=8, quota=0,
                                 heal_on_start=False)
        try:
            assert handle.app.doctor_report is None
            assert orphan.exists()     # untouched
        finally:
            handle.stop()
