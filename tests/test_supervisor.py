"""Tests for the supervision layer: retries, watchdogs, worker deaths,
checkpointing, and the ISSUE-4 acceptance scenario.

Every failure here is injected deterministically via REPRO_FAULTS (see
repro.sim.faults), so these tests exercise the real worker/cache
machinery — no mocking of the failure itself.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.sim import cache as disk_cache
from repro.sim import faults, runner, supervisor
from repro.sim.runner import (
    RunRequest,
    engine_stats,
    reset_engine_stats,
    run_batch,
)
from repro.sim.faults import InjectedError
from repro.sim.supervisor import (
    RunTimeoutError,
    backoff_delay,
    max_retries,
    run_timeout,
)

from conftest import live_children, wait_until_gone

N = 600


@pytest.fixture(autouse=True)
def fresh_supervised_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    runner.clear_cache()
    reset_engine_stats()
    yield
    runner.clear_cache()
    reset_engine_stats()


def req(workload="lbm", variant="psa", **kwargs):
    return RunRequest(workload, "spp", variant, n_accesses=N, **kwargs)


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay(3, 1) == backoff_delay(3, 1)

    def test_exponential_growth(self):
        base = backoff_delay(0, 0, base=0.1)
        assert backoff_delay(0, 2, base=0.1) > 2 * base

    def test_jitter_decorrelates_runs(self):
        delays = {backoff_delay(i, 0, base=0.1) for i in range(16)}
        assert len(delays) > 1

    def test_env_helpers(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        assert max_retries() == 5
        monkeypatch.delenv("REPRO_MAX_RETRIES")
        assert max_retries() == supervisor.DEFAULT_MAX_RETRIES
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        assert run_timeout() == 2.5
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "0")
        assert run_timeout() is None
        monkeypatch.delenv("REPRO_RUN_TIMEOUT")
        assert run_timeout() is None


class TestRetries:
    def test_transient_error_retried_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0:first=1")
        batch = run_batch([req()], jobs=1, strict=False)
        assert batch.ok
        assert batch.outcomes[0].attempts == 2
        assert engine_stats().retries == 1
        assert engine_stats().simulated == 1

    def test_transient_error_retried_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0:first=1")
        batch = run_batch([req(), req("milc")], jobs=2, strict=False)
        assert batch.ok
        assert batch.outcomes[0].attempts == 2
        assert batch.outcomes[1].attempts == 1

    def test_persistent_error_exhausts_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        batch = run_batch([req()], jobs=1, strict=False, retries=2)
        outcome = batch.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3            # initial + 2 retries
        assert outcome.failure.exc_type == "InjectedError"
        assert outcome.failure.traceback        # full traceback captured

    def test_in_process_crash_is_a_transient_crash_here(self, monkeypatch):
        # An untimed width-1 batch runs in this process, where an
        # injected crash raises instead of killing the interpreter.
        monkeypatch.setenv("REPRO_FAULTS", "crash@0")
        batch = run_batch([req()], jobs=1, strict=False, retries=1)
        outcome = batch.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2            # transient: retried once
        assert outcome.failure.kind == "crash"
        assert outcome.failure.exc_type == "InjectedCrash"
        assert outcome.failure.worker_pid == os.getpid()
        assert not outcome.failure.permanent

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_permanent_error_fails_immediately(self, jobs):
        batch = run_batch([req(l1d="bogus"), req("milc")], jobs=jobs,
                          strict=False, retries=2)
        outcome = batch.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1            # no retry for a bad request
        assert outcome.failure.exc_type == "ValueError"
        assert outcome.failure.permanent
        assert batch.outcomes[1].ok
        assert engine_stats().retries == 0


class TestStrictMode:
    def test_strict_reraises_original_serial(self):
        with pytest.raises(ValueError, match="l1d"):
            run_batch([req(l1d="bogus")], jobs=1)

    def test_strict_reraises_original_from_worker(self):
        with pytest.raises(ValueError, match="l1d"):
            run_batch([req(l1d="bogus"), req("milc")], jobs=2)

    def test_strict_failure_keeps_completed_checkpoints(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@1")
        with pytest.raises(Exception):
            run_batch([req(), req("milc")], jobs=1, retries=0)
        # Run 0 completed before run 1 failed: its checkpoint survives.
        assert disk_cache.stats().entries == 1

    def test_fail_fast_skips_remaining(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        requests = [req().resolved(), req("milc").resolved()]
        outcomes, _ = supervisor.supervise(
            requests, width=1, timeout=None, retries=0,
            plan=faults.plan_from_env(len(requests)), fail_fast=True)
        assert [o.status for o in outcomes] == ["failed", "skipped"]


class TestWatchdog:
    def test_serial_hang_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=10")
        start = time.monotonic()
        batch = run_batch([req()], jobs=1, strict=False, timeout=0.4)
        elapsed = time.monotonic() - start
        outcome = batch.outcomes[0]
        assert outcome.status == "timeout"
        assert outcome.failure.kind == "timeout"
        assert "watchdog" in outcome.failure.message
        assert elapsed < 5.0                    # killed, not slept out

    def test_parallel_hang_killed_by_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=30")
        start = time.monotonic()
        batch = run_batch([req(), req("milc")], jobs=2, strict=False,
                          timeout=1.0)
        elapsed = time.monotonic() - start
        assert [o.status for o in batch.outcomes] == ["timeout", "ok"]
        assert batch.outcomes[0].failure.worker_pid
        assert elapsed < 20.0                   # SIGKILL, not a 30s sleep
        assert engine_stats().timeouts == 1

    def test_strict_timeout_raises_run_timeout_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=10")
        with pytest.raises(RunTimeoutError):
            run_batch([req()], jobs=1, timeout=0.4)

    def test_no_serial_warning_when_the_pool_ran_everything(self):
        """A timed batch off the main thread runs on workers, and warns
        about no watchdog."""
        results = {}

        def worker():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results["batch"] = run_batch([req(), req("milc")], jobs=2,
                                             strict=False, timeout=60.0)
                results["warnings"] = [str(w.message) for w in caught]

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert results["batch"].ok
        assert engine_stats().worker_restarts == 0
        assert not [m for m in results["warnings"] if "watchdog" in m]

    def test_serial_batch_off_the_main_thread_is_timed(self, monkeypatch):
        """A timed width-1 batch runs on a worker, so the watchdog holds
        on any thread, as on ``repro serve``'s engine thread."""
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=30")
        results = {}

        def worker():
            start = time.monotonic()
            results["batch"] = run_batch([req()], jobs=1, strict=False,
                                         timeout=1.0)
            results["elapsed"] = time.monotonic() - start

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results["batch"].outcomes[0].status == "timeout"
        assert results["elapsed"] < 15.0        # SIGKILL, not a 30s sleep


WORKLOADS_20 = ["lbm", "milc", "mcf", "soplex", "bwaves", "GemsFDTD",
                "libquantum", "fotonik3d_s", "roms_s", "gcc_s"]


class TestAcceptance:
    """The ISSUE-4 acceptance scenario: crash@4 + hang@9 in a 20-run
    batch -> exactly those two failed/timeout, 18 ok and cached, and a
    rerun completes the 2 from cache-miss only."""

    def _requests(self):
        return [RunRequest(w, "spp", v, n_accesses=N)
                for w in WORKLOADS_20 for v in ("psa", "original")]

    def test_crash_and_hang_in_20_run_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@4;hang@9:secs=30")
        batch = run_batch(self._requests(), jobs=4, strict=False,
                          timeout=1.5, retries=1)
        statuses = [o.status for o in batch.outcomes]
        assert statuses[4] == "failed"
        assert batch.outcomes[4].failure.kind == "crash"
        assert statuses[9] == "timeout"
        assert statuses.count("ok") == 18
        assert "18/20 ok" in batch.summary_line()
        # Every completed run was checkpointed as it finished.
        assert disk_cache.stats().entries == 18
        assert len(batch.describe_failures()) == 2

        # Rerun with faults cleared: the 18 come from disk, only the
        # crashed and hung runs are re-simulated.
        monkeypatch.delenv("REPRO_FAULTS")
        runner.clear_cache()
        reset_engine_stats()
        rerun = run_batch(self._requests(), jobs=2, strict=False,
                          timeout=1.5, retries=1)
        assert rerun.ok
        stats = engine_stats()
        assert stats.disk_hits == 18
        assert stats.simulated == 2
        assert disk_cache.stats().entries == 20


class TestCheckpointing:
    def test_completed_runs_cached_despite_later_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@2")
        batch = run_batch([req(), req("milc"), req("mcf")], jobs=1,
                          strict=False, retries=0)
        assert [o.status for o in batch.outcomes] == ["ok", "ok", "failed"]
        assert disk_cache.stats().entries == 2

    def test_corrupt_fault_exercises_quarantine(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@0")
        batch = run_batch([req()], jobs=1, strict=False)
        assert batch.ok                         # the run itself succeeded
        report = disk_cache.verify()
        assert report.corrupt == 1
        # The corrupt entry is a miss: the rerun re-simulates and heals.
        monkeypatch.delenv("REPRO_FAULTS")
        runner.clear_cache()
        reset_engine_stats()
        rerun = run_batch([req()], jobs=1, strict=False)
        assert rerun.ok
        assert engine_stats().simulated == 1
        assert list(disk_cache.quarantine_dir().glob("*.json"))

    def test_outcome_sources(self):
        batch = run_batch([req(), req()], jobs=1, strict=False)
        assert batch.outcomes[0].source == "simulated"
        assert batch.outcomes[1] is batch.outcomes[0]   # deduped twin
        runner.clear_cache()
        from_disk = run_batch([req()], jobs=1, strict=False)
        assert from_disk.outcomes[0].source == "disk"
        from_memo = run_batch([req()], jobs=1, strict=False)
        assert from_memo.outcomes[0].source == "memo"


class TestWorkers:
    """Each worker holds one run, so the parent knows what a death costs."""

    def test_death_is_charged_to_its_run_only(self, monkeypatch,
                                              tmp_path):
        requests = [req(w) for w in ("lbm", "milc", "mcf", "soplex",
                                     "bwaves", "GemsFDTD")]
        clean = run_batch(requests, jobs=2, use_cache=False)
        reset_engine_stats()
        log = tmp_path / "executions"
        real_execute = runner._execute

        def logged_execute(request):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real_execute(request)

        monkeypatch.setattr(runner, "_execute", logged_execute)
        monkeypatch.setenv("REPRO_FAULTS", "crash@3:first=1")
        batch = run_batch(requests, jobs=2, strict=False, use_cache=False)
        assert [o.attempts for o in batch.outcomes] == [1, 1, 1, 2, 1, 1]
        assert batch.metrics == clean
        stats = engine_stats()
        assert stats.retries == 1
        assert stats.worker_restarts == 1
        # Six runs plus the one crashed attempt, none of them in-process.
        pids = log.read_text().split()
        assert len(pids) == 7
        assert str(os.getpid()) not in pids

    def test_no_worker_outlives_its_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@0:first=1;hang@1:secs=30")
        batch = run_batch([req(), req("milc"), req("mcf")], jobs=2,
                          strict=False, timeout=1.0)
        assert [o.status for o in batch.outcomes] == ["ok", "timeout", "ok"]
        assert engine_stats().worker_restarts == 1
        assert multiprocessing.active_children() == []
        monkeypatch.delenv("REPRO_FAULTS")
        with pytest.raises(ValueError, match="l1d"):
            run_batch([req(l1d="bogus"), req("soplex")], jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_their_supervisor_is_killed(self, tmp_path):
        # A SIGKILLed parent cannot stop its workers: each must see its
        # pipe close.  Run 0 hangs on one worker (busy when the parent
        # dies) while the other finishes runs 1 and 2 and waits (idle).
        script = ("from repro.sim.runner import RunRequest, run_batch\n"
                  "run_batch([RunRequest(w, 'spp', 'psa', n_accesses=600)"
                  " for w in ('lbm', 'milc', 'mcf')], jobs=2,"
                  " use_cache=False, strict=False)\n")
        env = dict(os.environ, REPRO_FAULTS="hang@0:secs=3",
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(__file__).resolve().parents[1] / "src"),
                        os.environ.get("PYTHONPATH", "")]))
        parent = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.monotonic() + 60
            while (len(live_children(parent.pid)) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            workers = live_children(parent.pid)
            assert len(workers) == 2
            time.sleep(0.5)
        finally:
            parent.kill()
            parent.wait()
        assert wait_until_gone(workers) == []

    def test_fail_fast_checkpoints_the_run_in_flight(self, monkeypatch):
        # Run 0 fails at once while run 1 is still running on the other
        # worker: run 1 finishes and is cached, run 2 never starts.
        monkeypatch.setenv("REPRO_FAULTS", "error@0;hang@1:secs=1")
        with pytest.raises(InjectedError):
            run_batch([req(), req("milc"), req("mcf")], jobs=2, retries=0)
        assert disk_cache.stats().entries == 1
        assert disk_cache.load(req("milc").resolved().key()) is not None

    def test_idle_worker_death_costs_no_attempt(self):
        killed = []

        def kill_idle_worker(index, outcome):
            # The worker that just answered is idle now.
            for child in multiprocessing.active_children():
                if not killed:
                    child.kill()
                    child.join()
                    killed.append(child.pid)

        outcomes, stats = supervisor.supervise(
            [req().resolved(), req("milc").resolved()], width=1,
            timeout=60.0, retries=0, on_outcome=kill_idle_worker)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert [o.attempts for o in outcomes] == [1, 1]
        assert len(killed) == 1
        assert stats.worker_restarts == 1

    def test_no_worker_can_start_runs_in_process(self, monkeypatch):
        def no_worker():
            raise OSError("no process can start")

        monkeypatch.setattr(supervisor, "_Worker", no_worker)
        with pytest.warns(RuntimeWarning, match="without the watchdog"):
            batch = run_batch([req(), req("milc")], jobs=2, strict=False,
                              timeout=60.0)
        assert batch.ok
        assert [o.attempts for o in batch.outcomes] == [1, 1]
