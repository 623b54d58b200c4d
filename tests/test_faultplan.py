"""The one fault-spec core (repro.sim.faultplan) under its three planes.

Every example spec the docs, CI and module docstrings show parses under
its plane to the clause fields the three per-plane parsers produced
before they were merged into one (hard-coded below); the shared seeded
sampler keeps ``REPRO_FAULTS``' batch schedules; a malformed spec names
its variable in every plane; and ``suspended()`` — the doctor's
no-injection window — hands back a plan it found not yet read from the
environment, so an environment plan still fires after a doctor pass.
"""

import random
import zlib
from pathlib import Path

import pytest

from repro.serve import netfaults
from repro.sim import cache, doctor, faultplan, faults, iofaults, runner
from repro.sim.config import ConfigurationError

from test_disk_cache import KEY, sample_metrics

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = ("README.md", "DESIGN.md", ".github/workflows/ci.yml")

#: spec -> [(indices, count, seed, kind, secs, first, at), ...]
RUN_EXAMPLES = {
    "crash@4;hang@9:secs=30": [((4,), 0, 0, "crash", 30.0, 0, -1),
                               ((9,), 0, 0, "hang", 30.0, 0, -1)],
    "error@0:first=1": [((0,), 0, 0, "error", 30.0, 1, -1)],
    "crash~3/42": [(None, 3, 42, "crash", 30.0, 0, -1)],
    "kill@0:at=1500:first=1": [((0,), 0, 0, "kill", 30.0, 1, 1500)],
    "error~3/42": [(None, 3, 42, "error", 30.0, 0, -1)],
    "error@1:first=1": [((1,), 0, 0, "error", 30.0, 1, -1)],
    "error@0": [((0,), 0, 0, "error", 30.0, 0, -1)],
    "kill@0:at=1300:first=1": [((0,), 0, 0, "kill", 30.0, 1, 1300)],
}

#: spec -> [(kind, site, indices, count, seed, window, secs), ...]
IO_EXAMPLES = {
    "enospc@3:site=cache": [("enospc", "cache", (3,), 0, 0, 16, 0.01)],
    "torn~2/7": [("torn", "", None, 2, 7, 16, 0.01)],
    "eio:site=store": [("eio", "store", None, 0, 0, 16, 0.01)],
    "fsync-lost@0:site=snapshot;slow:secs=0.01": [
        ("fsync-lost", "snapshot", (0,), 0, 0, 16, 0.01),
        ("slow", "", None, 0, 0, 16, 0.01)],
    "torn~2/7:site=cache;eio:site=store.commit": [
        ("torn", "cache", None, 2, 7, 16, 0.01),
        ("eio", "store.commit", None, 0, 0, 16, 0.01)],
}

NET_EXAMPLES = {
    "refuse@0:site=client.connect": [
        ("refuse", "client.connect", (0,), 0, 0, 16, 0.01)],
    "reset~3/7": [("reset", "", None, 3, 7, 16, 0.01)],
    "garble:site=client.recv": [
        ("garble", "client.recv", None, 0, 0, 16, 0.01)],
    "drop@2:site=daemon;delay:secs=0.005": [
        ("drop", "daemon", (2,), 0, 0, 16, 0.01),
        ("delay", "", None, 0, 0, 16, 0.005)],
    "refuse~2/7:site=client.connect;garble@0:site=daemon.respond": [
        ("refuse", "client.connect", None, 2, 7, 16, 0.01),
        ("garble", "daemon.respond", (0,), 0, 0, 16, 0.01)],
}


def run_fields(clause):
    action = clause.action
    return (clause.indices, clause.count, clause.seed, action.kind,
            action.secs, action.first, action.at)


def site_fields(clause):
    return (clause.kind, clause.site, clause.indices, clause.count,
            clause.seed, clause.window, clause.secs)


CASES = [(module, spec, expected, fields)
         for module, examples, fields in (
             (faults, RUN_EXAMPLES, run_fields),
             (iofaults, IO_EXAMPLES, site_fields),
             (netfaults, NET_EXAMPLES, site_fields))
         for spec, expected in examples.items()]


@pytest.mark.parametrize(
    "module, spec, expected, fields", CASES,
    ids=[f"{case[0].ENV_VAR}={case[1]}" for case in CASES])
class TestDocumentedExamples:
    def test_example_is_documented(self, module, spec, expected, fields):
        texts = [module.__doc__] + [(REPO / name).read_text()
                                    for name in DOC_FILES]
        assert any(spec in text for text in texts)

    def test_parses_to_the_same_fields(self, module, spec, expected,
                                       fields):
        assert [fields(clause) for clause in module.parse(spec)] \
            == expected


class TestSharedCore:
    def test_siteless_sample_is_the_batch_schedule(self):
        for seed in (0, 7, 42):
            assert faultplan.sample(seed, 3, 50) == \
                random.Random(seed).sample(range(50), 3)
        (clause,) = faults.parse("crash~3/42")
        assert clause.resolve(50) == (1, 7, 40)
        assert clause.resolve(2) == (0, 1)          # clamped to the batch

    def test_site_sample_mixes_in_the_site(self):
        seed = 7 ^ zlib.crc32(b"cache.write")
        assert faultplan.sample(7, 2, 16, "cache.write") == \
            random.Random(seed).sample(range(16), 2)
        (clause,) = iofaults.parse("torn~2/7:site=cache")
        assert [i for i in range(16)
                if clause.fires("cache.write", i)] == [7, 14]

    @pytest.mark.parametrize("module", [faults, iofaults, netfaults])
    def test_malformed_spec_names_its_variable(self, module):
        with pytest.raises(faultplan.SpecError) as excinfo:
            module.parse("bogus@1")
        assert isinstance(excinfo.value, ConfigurationError)
        assert not isinstance(excinfo.value, ValueError)
        assert str(excinfo.value).startswith(
            f"{module.ENV_VAR} clause 'bogus@1': unknown kind 'bogus'")


class TestSuspended:
    @pytest.fixture(autouse=True)
    def isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CAMPAIGN_DB", raising=False)
        runner.clear_cache()
        iofaults.disarm()
        yield
        iofaults.disarm()
        runner.clear_cache()

    def test_env_plan_still_fires_after_a_doctor_pass(self, monkeypatch):
        monkeypatch.setenv(iofaults.ENV_VAR, "eio:site=cache.write")
        iofaults.disarm()               # plan not yet read from the env
        assert doctor.diagnose(repair=True).clean
        assert cache.store(KEY, sample_metrics()) is False

    def test_restores_after_an_exception(self):
        armed = iofaults.arm("eio:site=cache.write")
        with pytest.raises(RuntimeError):
            with iofaults.suspended():
                assert cache.store(KEY, sample_metrics()) is True
                raise RuntimeError("scan blew up")
        assert iofaults.PLANE.plan is armed
        assert cache.store(KEY, sample_metrics()) is False
