"""Acceptance tests for crash-consistent mid-run snapshots (ISSUE-5).

The contract: a run killed mid-trace and resumed from its latest snapshot
finishes **bitwise identical** (full metrics digest) to an uninterrupted
run — across all five prefetcher variants and the golden-trace corpus —
and the supervision layer performs that resume automatically for crashed,
timed-out, and retried runs.
"""

import os

import pytest

from repro.sim import faults, runner, snapshot
from repro.sim.config import DuelingConfig, SystemConfig
from repro.sim.runner import RunRequest, run_batch
from repro.sim.simulator import simulate_trace
from repro.verify import golden
from repro.workloads.io import load_trace

ALL_VARIANTS = ("none", "original", "psa", "psa-2mb", "psa-sd")
KILL_AT = 1300          # mid-trace, past the first snapshot boundary
EVERY = 500

#: Configurations outside the SPP variant matrix, each resumed on one
#: golden trace under psa-sd: (trace, simulate_trace keywords).  IPCP
#: and TLB prefetching keep the run on the reference loop, and the IPCP
#: cases pickle ``may_cross``, a bound method of the translator.
CONFIGURATIONS = {
    "ipcp": ("lbm", dict(l1d="ipcp")),
    "ipcp++-tlb-prefetch": ("mcf", dict(
        l1d="ipcp++", config=SystemConfig(tlb_prefetch=True))),
    "1g-pages": ("milc", dict(
        gb_fraction=0.5, config=SystemConfig(num_page_sizes=3))),
    "ppm-to-llc": ("lbm", dict(config=SystemConfig(ppm_to_llc=True))),
    "dueling-standard": ("mcf", dict(
        dueling=DuelingConfig(policy="standard"))),
    "dueling-page-size": ("milc", dict(
        dueling=DuelingConfig(policy="page-size"))),
    "ppf": ("lbm", dict(prefetcher="ppf")),
    "bop": ("mcf", dict(prefetcher="bop")),
    "vldp": ("milc", dict(prefetcher="vldp")),
    "sms": ("lbm", dict(prefetcher="sms")),
    "ampm": ("mcf", dict(prefetcher="ampm")),
}


@pytest.fixture(autouse=True)
def snapshot_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "snapshots"))
    monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", str(EVERY))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runner.clear_cache()
    snapshot.reset_counters()
    yield
    runner.clear_cache()


def kill_then_resume(trace, variant, key, **kwargs):
    """Run *trace* killed at KILL_AT, then resume; return the metrics.

    *kwargs* go to ``simulate_trace``; the prefetcher defaults to the
    golden one."""
    kwargs.setdefault("prefetcher", golden.GOLDEN_PREFETCHER)
    faults.arm([faults.FaultAction(kind="kill", at=KILL_AT, first=1)], 0)
    try:
        with pytest.raises(faults.InjectedCrash):
            simulate_trace(trace, variant=variant, snapshot_key=key,
                           **kwargs)
        faults.arm([faults.FaultAction(kind="kill", at=KILL_AT,
                                       first=1)], 1)
        return simulate_trace(trace, variant=variant, snapshot_key=key,
                              **kwargs)
    finally:
        faults.disarm()


def golden_trace(name):
    return load_trace(next(path for path in golden.ensure_traces()
                           if path.name == f"{name}.trace.gz"))


class TestResumeBitwiseEquality:
    """The tentpole acceptance matrix: every variant, every golden trace."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_all_golden_traces(self, variant):
        for path in golden.ensure_traces():
            trace = load_trace(path)
            baseline = simulate_trace(
                trace, prefetcher=golden.GOLDEN_PREFETCHER, variant=variant)
            resumed = kill_then_resume(trace, variant,
                                       ("resume", trace.name, variant))
            assert (golden.metrics_digest(resumed)
                    == golden.metrics_digest(baseline)), (
                f"{trace.name}/{variant}: resumed run diverged")

    @pytest.mark.parametrize("case", sorted(CONFIGURATIONS))
    def test_other_configurations(self, case):
        name, kwargs = CONFIGURATIONS[case]
        trace = golden_trace(name)
        baseline = simulate_trace(
            trace, variant="psa-sd",
            **{"prefetcher": golden.GOLDEN_PREFETCHER, **kwargs})
        resumed = kill_then_resume(trace, "psa-sd", ("config", case),
                                   **kwargs)
        assert snapshot.COUNTERS["loads"] == 1
        assert (golden.metrics_digest(resumed)
                == golden.metrics_digest(baseline)), (
            f"{name}/{case}: resumed run diverged")

    def test_resume_actually_used_a_snapshot(self):
        trace = load_trace(golden.ensure_traces()[0])
        kill_then_resume(trace, "psa", ("counted", trace.name))
        assert snapshot.COUNTERS["stores"] >= KILL_AT // EVERY
        assert snapshot.COUNTERS["loads"] == 1
        assert snapshot.COUNTERS["discards"] == 1   # removed on success

    def test_snapshot_removed_after_completion(self):
        trace = load_trace(golden.ensure_traces()[0])
        key = ("cleanup", trace.name)
        kill_then_resume(trace, "psa", key)
        assert not snapshot.snapshot_path(key).exists()

    def test_corrupt_snapshot_restarts_from_scratch(self):
        trace = load_trace(golden.ensure_traces()[0])
        baseline = simulate_trace(trace, prefetcher="spp", variant="psa")
        key = ("corrupted", trace.name)
        faults.arm([faults.FaultAction(kind="kill", at=KILL_AT,
                                       first=1)], 0)
        with pytest.raises(faults.InjectedCrash):
            simulate_trace(trace, prefetcher="spp", variant="psa",
                           snapshot_key=key)
        faults.disarm()
        faults.corrupt_file(snapshot.snapshot_path(key))
        resumed = simulate_trace(trace, prefetcher="spp", variant="psa",
                                 snapshot_key=key)
        assert snapshot.COUNTERS["quarantined"] == 1
        assert (golden.metrics_digest(resumed)
                == golden.metrics_digest(baseline))

    def test_payload_that_is_not_a_core_restarts_from_scratch(self):
        trace = load_trace(golden.ensure_traces()[0])
        baseline = simulate_trace(trace, prefetcher="spp", variant="psa")
        key = ("not-a-core", trace.name)
        assert snapshot.store(key, KILL_AT, {"core": {}, "hierarchy": {}})
        resumed = simulate_trace(trace, prefetcher="spp", variant="psa",
                                 snapshot_key=key)
        assert snapshot.COUNTERS["quarantined"] == 1
        assert (golden.metrics_digest(resumed)
                == golden.metrics_digest(baseline))

    def test_snapshot_from_other_code_is_never_resumed(self, monkeypatch):
        # A pickled core carries the attributes of the code that wrote
        # it, so a source change must make its snapshots unreachable.
        trace = load_trace(golden.ensure_traces()[0])
        baseline = simulate_trace(trace, prefetcher="spp", variant="psa")
        key = ("other-code", trace.name)
        faults.arm([faults.FaultAction(kind="kill", at=KILL_AT,
                                       first=1)], 0)
        try:
            with pytest.raises(faults.InjectedCrash):
                simulate_trace(trace, prefetcher="spp", variant="psa",
                               snapshot_key=key)
        finally:
            faults.disarm()
        written = snapshot.snapshot_path(key)
        assert written.exists()
        monkeypatch.setattr(snapshot, "source_digest", lambda: "0" * 64)
        rerun = simulate_trace(trace, prefetcher="spp", variant="psa",
                               snapshot_key=key)
        assert snapshot.COUNTERS["loads"] == 0
        assert (golden.metrics_digest(rerun)
                == golden.metrics_digest(baseline))
        # Another salt is another key: the old file waits for prune.
        assert written.exists()


N = 2000


def req(workload="lbm", variant="psa"):
    return RunRequest(workload, "spp", variant, n_accesses=N)


class TestSupervisedResume:
    """The supervisor resumes killed/timed-out runs automatically."""

    def baseline(self, request):
        from repro.sim.runner import _execute
        return golden.metrics_digest(_execute(request))

    def test_serial_kill_resumes(self, monkeypatch):
        expected = self.baseline(req())
        monkeypatch.setenv("REPRO_FAULTS", f"kill@0:at={KILL_AT}:first=1")
        batch = run_batch([req()], jobs=1, strict=False, retries=2)
        outcome = batch.outcomes[0]
        assert outcome.ok and outcome.attempts == 2
        assert golden.metrics_digest(batch.metrics[0]) == expected
        assert snapshot.COUNTERS["loads"] == 1

    def test_pool_kill_resumes(self, monkeypatch):
        # A watchdog puts even a one-run batch on a worker, where the
        # kill is os._exit(137): a real worker death, not an exception
        # the worker can soften.
        expected = self.baseline(req("mcf", "psa-sd"))
        monkeypatch.setenv("REPRO_FAULTS", f"kill@0:at={KILL_AT}:first=1")
        runner.reset_engine_stats()
        batch = run_batch([req("mcf", "psa-sd")], jobs=2, strict=False,
                          retries=2, timeout=120)
        outcome = batch.outcomes[0]
        assert outcome.ok and outcome.attempts == 2
        assert golden.metrics_digest(batch.metrics[0]) == expected
        assert runner.engine_stats().worker_restarts == 1

    def test_timeout_retried_when_snapshots_enabled(self, monkeypatch):
        # A hang on the first attempt exceeds the watchdog; with
        # snapshots on, the timeout is transient and the retry succeeds.
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=10:first=1")
        batch = run_batch([req()], jobs=1, strict=False, timeout=1.0,
                          retries=2)
        outcome = batch.outcomes[0]
        assert outcome.ok and outcome.attempts == 2

    def test_timeout_terminal_when_snapshots_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "0")
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=10:first=1")
        batch = run_batch([req()], jobs=1, strict=False, timeout=1.0,
                          retries=2)
        outcome = batch.outcomes[0]
        assert not outcome.ok
        assert outcome.status == "timeout"
        assert outcome.attempts == 1

    def test_timeout_exhaustion_still_reports_timeout(self, monkeypatch):
        # Every attempt hangs: retries burn out and the outcome must be
        # TIMEOUT (not a generic failure) for accurate accounting.
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=10")
        batch = run_batch([req()], jobs=1, strict=False, timeout=0.5,
                          retries=1)
        outcome = batch.outcomes[0]
        assert not outcome.ok
        assert outcome.status == "timeout"
        assert outcome.attempts == 2


class TestKillFaultSpec:
    def test_kill_requires_at(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse("kill@0")

    def test_kill_parses(self):
        clause = faults.parse("kill@0:at=1500:first=1")[0]
        assert clause.action.kind == "kill"
        assert clause.action.at == 1500
        assert clause.action.first == 1

    def test_kill_fires_only_at_index(self):
        faults.arm([faults.FaultAction(kind="kill", at=5, first=0)], 0)
        try:
            faults.access_checkpoint(4)
            with pytest.raises(faults.InjectedCrash):
                faults.access_checkpoint(5)
        finally:
            faults.disarm()

    def test_checkpoint_ignores_kill(self):
        # The start-of-run checkpoint must not fire kills: they belong to
        # the per-access hook.
        faults.arm([faults.FaultAction(kind="kill", at=0, first=0)], 0)
        try:
            faults.checkpoint("workload")
        finally:
            faults.disarm()
