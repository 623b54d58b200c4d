"""Unit tests for ``repro.sim.snapshot``: the crash-consistent mid-run
snapshot store (atomic writes, validation, quarantine, maintenance) and
its ``repro snapshot`` CLI subcommand."""

import json
import os

import pytest

from repro.cli import main
from repro.sim import snapshot

KEY = ("lbm", "spp", "psa", 2500)
STATE = {"core": {"fetch": 17}, "hierarchy": {"l2c": [1, 2, 3]}}


@pytest.fixture(autouse=True)
def snapshot_sandbox(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "100")
    snapshot.reset_counters()
    yield


class TestStoreLoad:
    def test_roundtrip(self):
        assert snapshot.store(KEY, 199, STATE)
        assert snapshot.load(KEY) == (199, STATE)
        assert snapshot.COUNTERS["stores"] == 1
        assert snapshot.COUNTERS["loads"] == 1

    def test_missing_is_a_miss(self):
        assert snapshot.load(KEY) is None
        assert snapshot.COUNTERS["misses"] == 1

    def test_overwrite_keeps_latest(self):
        snapshot.store(KEY, 99, {"a": 1})
        snapshot.store(KEY, 199, {"a": 2})
        assert snapshot.load(KEY) == (199, {"a": 2})

    def test_no_temp_files_left_behind(self):
        snapshot.store(KEY, 199, STATE)
        leftovers = [p for p in snapshot.snapshot_dir().rglob("*")
                     if p.is_file() and p.suffix != ".snap"]
        assert leftovers == []

    def test_unwritable_dir_returns_false(self, monkeypatch, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(blocker))
        assert snapshot.store(KEY, 1, STATE) is False

    def test_discard(self):
        snapshot.store(KEY, 199, STATE)
        assert snapshot.discard(KEY)
        assert not snapshot.snapshot_path(KEY).exists()
        assert snapshot.COUNTERS["discards"] == 1
        assert snapshot.discard(KEY) is False   # already gone

    def test_distinct_keys_do_not_collide(self):
        other = ("mcf", "spp", "psa", 2500)
        snapshot.store(KEY, 10, {"k": 1})
        snapshot.store(other, 20, {"k": 2})
        assert snapshot.load(KEY) == (10, {"k": 1})
        assert snapshot.load(other) == (20, {"k": 2})


class TestValidation:
    def _stored_path(self):
        snapshot.store(KEY, 199, STATE)
        return snapshot.snapshot_path(KEY)

    def _assert_quarantined(self):
        assert snapshot.load(KEY) is None
        assert snapshot.COUNTERS["quarantined"] == 1
        assert snapshot.COUNTERS["misses"] == 1
        assert not snapshot.snapshot_path(KEY).exists()
        assert list(snapshot.quarantine_dir().glob("*"))

    def test_truncated_body_quarantined(self):
        path = self._stored_path()
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 7])
        self._assert_quarantined()

    def test_flipped_byte_quarantined(self):
        path = self._stored_path()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        self._assert_quarantined()

    def test_bad_magic_quarantined(self):
        path = self._stored_path()
        path.write_bytes(b"not-a-snapshot\n" + path.read_bytes())
        self._assert_quarantined()

    def test_garbage_header_quarantined(self):
        path = self._stored_path()
        path.write_bytes(snapshot.MAGIC + b"{not json\n")
        self._assert_quarantined()

    def test_stale_salt_quarantined(self, monkeypatch):
        path = self._stored_path()
        monkeypatch.setattr(snapshot, "SNAPSHOT_VERSION",
                            snapshot.SNAPSHOT_VERSION + 1)
        assert snapshot.load(KEY) is None
        # Different salt → different digest → plain miss for the new key,
        # and the old file is still on disk for prune to sweep.
        assert path.exists()

    def test_same_path_wrong_salt_quarantined(self):
        # Forge a header with a stale salt at the *current* key's path.
        path = self._stored_path()
        with path.open("rb") as handle:
            handle.read(len(snapshot.MAGIC))
            header = json.loads(handle.readline().decode())
            body = handle.read()
        header["salt"] = "0:stale:0"
        path.write_bytes(snapshot.MAGIC + json.dumps(header).encode()
                         + b"\n" + body)
        self._assert_quarantined()

    def test_quarantine_never_overwrites(self):
        for _ in range(3):
            path = self._stored_path()
            snapshot._quarantine(path)
        assert len(list(snapshot.quarantine_dir().glob("*"))) == 3


class TestMaintenance:
    def test_list_and_stats(self):
        snapshot.store(KEY, 199, STATE)
        snapshot.store(("other",), 5, {"x": 1})
        entries = snapshot.list_entries()
        assert len(entries) == 2
        assert all(e.current for e in entries)
        assert {e.access_index for e in entries} == {199, 5}
        report = snapshot.stats()
        assert report.entries == 2
        assert report.total_bytes > 0
        assert "snapshots    : 2" in report.describe()

    def test_prune_default_keeps_current(self):
        snapshot.store(KEY, 199, STATE)
        assert snapshot.prune() == 0
        assert snapshot.snapshot_path(KEY).exists()

    def test_prune_removes_stale(self, monkeypatch):
        snapshot.store(KEY, 199, STATE)
        monkeypatch.setattr(snapshot, "SNAPSHOT_VERSION",
                            snapshot.SNAPSHOT_VERSION + 1)
        assert snapshot.prune() == 1

    def test_prune_all(self):
        snapshot.store(KEY, 199, STATE)
        snapshot.store(("other",), 5, {"x": 1})
        assert snapshot.prune(all_entries=True) == 2
        assert snapshot.stats().entries == 0

    def test_prune_quarantines_torn_header(self):
        path = snapshot.snapshot_path(KEY)
        snapshot.store(KEY, 199, STATE)
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.index(b"\n", len(snapshot.MAGIC)) - 5])
        assert snapshot.prune() == 1
        assert not path.exists()
        (held,) = snapshot.quarantine_dir().glob("*.snap")
        assert held.name == path.name        # evidence kept, not deleted

    def test_prune_quarantines_body_corrupt_and_sweeps_orphans(self):
        path = snapshot.snapshot_path(KEY)
        snapshot.store(KEY, 199, STATE)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF                     # header intact, sha fails
        path.write_bytes(bytes(data))
        orphan = path.parent / "leak.tmp"
        orphan.write_bytes(b"half a snap")
        old = os.path.getmtime(orphan) - 3600
        os.utime(orphan, (old, old))
        snapshot.store(("other",), 5, {"x": 1})
        assert snapshot.prune() == 2
        assert not path.exists() and not orphan.exists()
        assert len(list(snapshot.quarantine_dir().glob("*.snap"))) == 1
        assert snapshot.load(("other",)) == (5, {"x": 1})


class TestCli:
    def test_stats(self, capsys):
        assert main(["snapshot", "stats"]) == 0
        out = capsys.readouterr().out
        assert "enabled (every 100 accesses)" in out

    def test_list_empty(self, capsys):
        assert main(["snapshot", "list"]) == 0
        assert "no snapshots" in capsys.readouterr().out

    def test_list_and_prune(self, capsys):
        snapshot.store(KEY, 199, STATE)
        assert main(["snapshot", "list"]) == 0
        out = capsys.readouterr().out
        assert "1 snapshots" in out
        assert "199" in out
        assert main(["snapshot", "prune", "--all"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert snapshot.stats().entries == 0

    def test_dir_override(self, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        assert main(["snapshot", "stats", "--dir", str(other)]) == 0
        assert str(other) in capsys.readouterr().out
