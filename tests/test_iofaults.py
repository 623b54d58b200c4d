"""Tests for the storage-layer IO fault injection shim
(repro.sim.iofaults): grammar, deterministic sequencing, and the
degrade-never-corrupt behaviour of every wrapped layer.
"""

import json
import time

import pytest

from repro.sim import cache, iofaults, runner
from repro.sim import snapshot as snapshot_store
from repro.sim.config import ConfigurationError

from test_disk_cache import KEY, sample_metrics


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
    monkeypatch.delenv("REPRO_IO_FAULTS", raising=False)
    runner.clear_cache()
    iofaults.disarm()
    yield tmp_path
    iofaults.disarm()
    runner.clear_cache()


class TestGrammar:
    def test_bare_kind(self):
        (clause,) = iofaults.parse("eio")
        assert clause.kind == "eio"
        assert clause.indices is None and clause.count == 0

    def test_explicit_indices(self):
        (clause,) = iofaults.parse("enospc@3")
        assert clause.indices == (3,)
        (clause,) = iofaults.parse("enospc@0+2+5")
        assert clause.indices == (0, 2, 5)

    def test_seeded_target(self):
        (clause,) = iofaults.parse("torn~2/7")
        assert clause.count == 2 and clause.seed == 7

    def test_params(self):
        (clause,) = iofaults.parse("slow:site=cache.write:secs=0.25:of=8")
        assert clause.site == "cache.write"
        assert clause.secs == 0.25
        assert clause.window == 8

    def test_multiple_clauses(self):
        clauses = iofaults.parse("enospc@0:site=cache; eio:site=store")
        assert [c.kind for c in clauses] == ["enospc", "eio"]

    def test_empty_spec_parses_empty(self):
        assert iofaults.parse("") == []
        assert iofaults.parse(" ; ") == []

    @pytest.mark.parametrize("spec", [
        "wat",                       # unknown kind
        "enospc@1~2/3",              # both target syntaxes
        "enospc@x",                  # non-integer index
        "enospc@-1",                 # negative index
        "torn~2",                    # seeded without /seed
        "torn~a/b",                  # non-integer count/seed
        "torn~-1/5",                 # negative count
        "eio:wat=1",                 # unknown parameter
        "slow:secs=fast",            # non-float secs
        "eio:site=",                 # empty value
        "torn~2/7:of=0",             # window must be positive
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(iofaults.IOFaultSpecError):
            iofaults.parse(spec)

    def test_spec_error_is_configuration_error(self):
        # The CLI maps ConfigurationError to exit 2, and the supervisor
        # must never classify an operator typo as a run failure.
        with pytest.raises(ConfigurationError):
            iofaults.parse("nonsense")

    def test_plan_from_env(self, monkeypatch):
        assert iofaults.plan_from_env() is None
        monkeypatch.setenv("REPRO_IO_FAULTS", "eio@0:site=cache")
        (clause,) = iofaults.plan_from_env()
        assert clause.kind == "eio"
        monkeypatch.setenv("REPRO_IO_FAULTS", "garbage")
        with pytest.raises(iofaults.IOFaultSpecError):
            iofaults.plan_from_env()


class TestSequencing:
    def test_site_prefix_matches_component_wise(self):
        clause = iofaults.parse("eio:site=cache")[0]
        assert clause.matches_site("cache.write")
        assert clause.matches_site("cache")
        assert not clause.matches_site("cachette.write")
        assert not clause.matches_site("snapshot.write")

    def test_kind_applies_only_to_its_ops(self):
        clause = iofaults.parse("torn")[0]
        assert clause.fires("cache.write", 0)
        assert not clause.fires("cache.read", 0)
        assert not clause.fires("cache.fsync", 0)
        clause = iofaults.parse("partial-read")[0]
        assert clause.fires("snapshot.read", 0)
        assert not clause.fires("snapshot.write", 0)

    def test_explicit_index_fires_once_per_site_sequence(self):
        iofaults.arm("enospc@1:site=cache.rename")
        # Index 0 passes, index 1 faults, index 2 passes again.
        iofaults.replace("cache.rename", *self._pair(0))
        with pytest.raises(iofaults.InjectedIOError):
            iofaults.replace("cache.rename", *self._pair(1))
        iofaults.replace("cache.rename", *self._pair(2))

    def _pair(self, i):
        import tempfile
        src = tempfile.mktemp(suffix=f".{i}.a")
        dst = tempfile.mktemp(suffix=f".{i}.b")
        with open(src, "w") as fh:
            fh.write("x")
        return src, dst

    def test_seeded_firing_replays_identically(self):
        fired_runs = []
        for _ in range(2):
            iofaults.arm("enospc~3/42:site=cache.rename:of=12")
            fired = []
            for index in range(12):
                try:
                    iofaults.replace("cache.rename", *self._pair(index))
                except iofaults.InjectedIOError:
                    fired.append(index)
            fired_runs.append(fired)
        assert fired_runs[0] == fired_runs[1]
        assert len(fired_runs[0]) == 3

    def test_sites_count_independently(self):
        iofaults.arm("enospc@0")
        with pytest.raises(iofaults.InjectedIOError):
            iofaults.check("store.open")
        # A different site still sits at index 0 -> also faults.
        with pytest.raises(iofaults.InjectedIOError):
            iofaults.check("store.commit")
        # Same sites at index 1: clean.
        iofaults.check("store.open")
        iofaults.check("store.commit")

    def test_injected_error_is_oserror_with_errno(self):
        import errno
        iofaults.arm("enospc:site=store")
        with pytest.raises(OSError) as info:
            iofaults.check("store.open")
        assert info.value.errno == errno.ENOSPC
        iofaults.arm("eio:site=store")
        with pytest.raises(OSError) as info:
            iofaults.check("store.commit")
        assert info.value.errno == errno.EIO

    def test_slow_sleeps(self):
        iofaults.arm("slow:site=store:secs=0.05")
        begin = time.perf_counter()
        iofaults.check("store.open")
        assert time.perf_counter() - begin >= 0.05

    def test_disarmed_from_env_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_IO_FAULTS", "eio@0:site=store")
        iofaults.disarm()           # forget -> next hook re-reads env
        with pytest.raises(iofaults.InjectedIOError):
            iofaults.check("store.open")
        monkeypatch.delenv("REPRO_IO_FAULTS")
        iofaults.disarm()
        iofaults.check("store.open")    # clean again


class TestCacheLayer:
    def test_enospc_store_degrades_to_uncached(self):
        iofaults.arm("enospc:site=cache.write")
        assert cache.store(KEY, sample_metrics()) is False
        assert cache.load(KEY) is None
        iofaults.disarm()
        # No temp litter beyond the failed write's cleanup.
        objects = cache.cache_dir() / "objects"
        assert not list(objects.glob("*/*.tmp"))

    def test_torn_write_is_quarantined_on_read_never_served(self):
        iofaults.arm("torn@0:site=cache.write")
        assert cache.store(KEY, sample_metrics()) is True   # call "works"
        iofaults.disarm()
        path = cache.entry_path(KEY)
        assert path.exists()
        with pytest.raises(ValueError):
            json.loads(path.read_text())    # bytes really are torn
        assert cache.load(KEY) is None      # ...but never served
        assert not path.exists()
        assert len(list(cache.quarantine_dir().glob("*.json"))) == 1

    def test_fsync_lost_write_is_quarantined_on_read(self):
        iofaults.arm("fsync-lost@0:site=cache.fsync")
        assert cache.store(KEY, sample_metrics()) is True
        iofaults.disarm()
        assert cache.load(KEY) is None
        assert len(list(cache.quarantine_dir().glob("*.json"))) == 1

    def test_rename_fault_leaves_no_entry_and_no_temp(self):
        iofaults.arm("enospc:site=cache.rename")
        assert cache.store(KEY, sample_metrics()) is False
        iofaults.disarm()
        assert not cache.entry_path(KEY).exists()
        objects = cache.cache_dir() / "objects"
        assert not list(objects.glob("*/*.tmp"))

    def test_partial_read_quarantines_a_good_entry(self):
        # Degrade-never-corrupt: a half-read of a perfectly good entry
        # costs a re-simulation (entry quarantined), never a wrong
        # payload served as truth.
        assert cache.store(KEY, sample_metrics())
        iofaults.arm("partial-read@0:site=cache.read")
        assert cache.load(KEY) is None
        iofaults.disarm()
        assert len(list(cache.quarantine_dir().glob("*.json"))) == 1
        # The slot heals on the next store.
        assert cache.store(KEY, sample_metrics())
        assert cache.load(KEY) == sample_metrics()

    def test_faulted_store_then_healthy_store_roundtrips(self):
        iofaults.arm("enospc@0:site=cache.write")
        assert cache.store(KEY, sample_metrics()) is False
        assert cache.store(KEY, sample_metrics()) is True   # index 1: clean
        assert cache.load(KEY) == sample_metrics()


class TestSnapshotLayer:
    STATE = {"component": {"counter": 123}}

    def test_enospc_store_returns_false(self):
        iofaults.arm("enospc:site=snapshot.write")
        assert snapshot_store.store(KEY, 500, self.STATE) is False
        assert snapshot_store.load(KEY) is None

    def test_torn_snapshot_never_resumed(self):
        snapshot_store.reset_counters()
        iofaults.arm("torn@0:site=snapshot.write")
        assert snapshot_store.store(KEY, 500, self.STATE) is True
        iofaults.disarm()
        assert snapshot_store.load(KEY) is None
        assert snapshot_store.COUNTERS["quarantined"] == 1
        assert len(list(
            snapshot_store.quarantine_dir().glob("*.snap"))) == 1

    def test_fsync_lost_snapshot_never_resumed(self):
        iofaults.arm("fsync-lost@0:site=snapshot.fsync")
        assert snapshot_store.store(KEY, 500, self.STATE) is True
        iofaults.disarm()
        assert snapshot_store.load(KEY) is None

    def test_partial_read_treated_as_absent(self):
        assert snapshot_store.store(KEY, 500, self.STATE)
        iofaults.arm("partial-read:site=snapshot.read")
        assert snapshot_store.load(KEY) is None
        iofaults.disarm()

    def test_healthy_store_after_fault_roundtrips(self):
        iofaults.arm("torn@0:site=snapshot.write")
        snapshot_store.store(KEY, 500, self.STATE)
        snapshot_store.load(KEY)            # quarantines the torn one
        iofaults.disarm()
        assert snapshot_store.store(KEY, 600, self.STATE)
        assert snapshot_store.load(KEY) == (600, self.STATE)


class TestPeekUnderFaults:
    """``snapshot.peek`` — the serving layer's progress probe — must
    degrade to "no progress yet" on any unreadable header, never crash
    and never quarantine (the run is still writing that file)."""

    STATE = {"component": {"counter": 123}}

    def test_peek_healthy_header(self):
        assert snapshot_store.store(KEY, 500, self.STATE)
        header = snapshot_store.peek(KEY)
        assert header is not None and header["access_index"] == 500

    def test_peek_partial_read_header_degrades_to_none(self):
        assert snapshot_store.store(KEY, 500, self.STATE)
        iofaults.arm("partial-read:site=snapshot.read")
        assert snapshot_store.peek(KEY) is None

    def test_peek_injected_eio_degrades_to_none(self):
        assert snapshot_store.store(KEY, 500, self.STATE)
        iofaults.arm("eio:site=snapshot.read")
        assert snapshot_store.peek(KEY) is None

    def test_peek_torn_on_disk_header_degrades_to_none(self):
        # Physically truncate mid-header — the artifact a torn write or
        # power loss leaves, independent of any injected read fault.
        assert snapshot_store.store(KEY, 500, self.STATE)
        path = snapshot_store.snapshot_path(KEY)
        raw = path.read_bytes()
        newline = raw.index(b"\n", len(snapshot_store.MAGIC))
        path.write_bytes(raw[:newline - 5])
        assert snapshot_store.peek(KEY) is None
        assert path.exists()            # peek never quarantines

    def test_peek_faulted_probe_leaves_snapshot_usable(self):
        assert snapshot_store.store(KEY, 500, self.STATE)
        quarantined = snapshot_store.COUNTERS.get("quarantined", 0)
        iofaults.arm("partial-read@0:site=snapshot.read")
        assert snapshot_store.peek(KEY) is None
        assert snapshot_store.COUNTERS.get(
            "quarantined", 0) == quarantined
        # The next probe (fault spent) sees the intact header again.
        header = snapshot_store.peek(KEY)
        assert header is not None and header["access_index"] == 500
        assert snapshot_store.load(KEY) == (500, self.STATE)


class TestStoreLayer:
    def test_open_fault_fails_construction(self, tmp_path):
        from repro.campaign.store import CampaignStore
        iofaults.arm("eio:site=store.open")
        with pytest.raises(OSError):
            CampaignStore(tmp_path / "c.sqlite")
        iofaults.disarm()
        with CampaignStore(tmp_path / "c.sqlite") as store:
            assert store.campaigns() == []

    def test_commit_fault_raises_oserror(self, tmp_path):
        from repro.campaign.store import CampaignStore
        from conftest import tiny_campaign
        campaign = tiny_campaign()
        with CampaignStore(tmp_path / "c.sqlite") as store:
            iofaults.arm("eio:site=store.commit")
            with pytest.raises(OSError):
                store.register(campaign)
            iofaults.disarm()
            cells = store.register(campaign)
            assert len(cells) == len(campaign.cells())


class TestDisarmedFastPath:
    def test_everything_roundtrips_with_no_plan(self):
        assert iofaults.plan_from_env() is None
        assert cache.store(KEY, sample_metrics())
        assert cache.load(KEY) == sample_metrics()
        assert snapshot_store.store(KEY, 1, {"s": 1})
        assert snapshot_store.load(KEY) == (1, {"s": 1})

    def test_counters_not_tracked_when_disarmed(self):
        iofaults.reset_counters()
        cache.store(KEY, sample_metrics())
        assert iofaults.PLANE.counters == {}
