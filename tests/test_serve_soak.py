"""Fault-injection soak of the serving daemon.

The daemon inherits its reliability from the supervised engine; these
tests prove that inheritance holds end to end over real HTTP: with
REPRO_FAULTS crashing and hanging workers underneath it, **every**
submission still terminates in a structured ok/failed/timeout result —
no hung clients, no orphaned queue entries, no leaked quota slots.

The daemon runs with ``engine_jobs=2`` unless a test says otherwise.
The watchdog SIGKILLs a hung worker from the parent, so it works from
the daemon's executor thread at any width (see tests/test_supervisor.py).

Fault indices refer to the *scheduled* run list of each engine batch
(post-dedupe, post-cache), which is the dispatcher's FIFO claim order —
so ``crash@0`` targets the first distinct fingerprint admitted while
dispatch was paused.
"""

import threading
import time

import pytest

from repro.sim import runner
from repro.sim.runner import RunRequest, run_batch
from repro.serve.app import start_in_thread
from repro.serve.client import ServeClient, ServeClientError

N = 600

#: Distinct fingerprints for one paused-admission batch, in FIFO order.
WORKLOADS = ("lbm", "milc", "mcf", "omnetpp")


@pytest.fixture(autouse=True)
def fresh_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_SNAPSHOT_EVERY", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    runner.clear_cache()
    runner.reset_engine_stats()
    yield
    runner.clear_cache()
    runner.reset_engine_stats()


@pytest.fixture
def daemon():
    handles = []

    def _boot(**kwargs):
        kwargs.setdefault("engine_jobs", 2)
        kwargs.setdefault("batch_linger_s", 0.01)
        handle = start_in_thread(**kwargs)
        handles.append(handle)
        return handle

    yield _boot
    for handle in handles:
        handle.stop()


def body(workload, **kwargs):
    data = {"workload": workload, "variant": "psa", "n_accesses": N}
    data.update(kwargs)
    return data


def assert_no_leaks(app):
    """The soak invariants: nothing orphaned, nothing leaked."""
    assert app.queue.orphaned() == []
    assert app.queue.depth() == 0
    assert app.quotas.total_in_flight() == 0
    for job in app.queue.jobs.values():
        assert job.terminal
        assert job.result["status"] in ("ok", "failed", "timeout")


def submit_all(handle, client):
    """Queue one job per soak workload while dispatch is paused."""
    handle.pause()
    job_ids = []
    for workload in WORKLOADS:
        response = client.submit(body(workload))
        assert response.status == 202
        job_ids.append(response.body["job_id"])
    handle.resume()
    return job_ids


def collect(client, job_ids):
    """Wait out every job; return {workload: result} with shape checks."""
    results = {}
    for workload, job_id in zip(WORKLOADS, job_ids):
        done = client.wait(job_id, timeout=120)
        result = done.body["result"]
        results[workload] = result
        if result["status"] == "ok":
            assert result["metrics"]["ipc"] > 0
        else:
            assert result["failure"]["kind"]
            assert result["metrics"] is None
    return results


class TestFaultSoak:
    def test_worker_crashes_heal_and_all_terminate(self, daemon,
                                                   monkeypatch):
        """A worker that SIGKILLs itself must not take the daemon down:
        the supervisor replaces the worker, the crashed run is retried,
        and every client gets ``ok``."""
        monkeypatch.setenv("REPRO_FAULTS", "crash@0:first=1")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "2")
        handle = daemon()
        client = ServeClient(port=handle.port, client_id="soak")
        results = collect(client, submit_all(handle, client))
        assert [r["status"] for r in results.values()] == ["ok"] * 4
        assert results["lbm"]["attempts"] >= 2   # the crash cost a retry
        assert handle.app.queue.counters["completed_ok"] == 4
        assert_no_leaks(handle.app)

    def test_hung_worker_is_timed_out_by_watchdog(self, daemon,
                                                  monkeypatch):
        """A hung worker is SIGKILLed by the watchdog from the daemon's
        executor thread and surfaces as a structured ``timeout``; its
        batch neighbours finish ``ok``."""
        monkeypatch.setenv("REPRO_FAULTS", "hang@1")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2")
        handle = daemon()
        client = ServeClient(port=handle.port, client_id="soak")
        results = collect(client, submit_all(handle, client))
        statuses = {w: r["status"] for w, r in results.items()}
        assert statuses == {"lbm": "ok", "milc": "timeout",
                            "mcf": "ok", "omnetpp": "ok"}
        failure = results["milc"]["failure"]
        assert failure["kind"] == "timeout"
        assert "watchdog" in failure["message"]
        counters = handle.app.queue.counters
        assert counters["completed_ok"] == 3
        assert counters["completed_timeout"] == 1
        assert_no_leaks(handle.app)

    def test_one_engine_job_is_timed_too(self, daemon, monkeypatch):
        """With one engine job the hung run is on a worker as well, so
        the watchdog answers it with a structured ``timeout``."""
        monkeypatch.setenv("REPRO_FAULTS", "hang@0")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2")
        handle = daemon(engine_jobs=1)
        client = ServeClient(port=handle.port)
        start = time.monotonic()
        result = client.submit_and_wait(body("lbm"),
                                        timeout=120).body["result"]
        assert result["status"] == "timeout"
        assert result["failure"]["kind"] == "timeout"
        assert time.monotonic() - start < 25.0   # not the 30 s hang
        assert_no_leaks(handle.app)

    def test_persistent_error_exhausts_retries_as_failed(self, daemon,
                                                         monkeypatch):
        """A fault firing on every attempt burns through the retry
        budget and surfaces as a structured ``failed`` result carrying
        the supervisor's failure record."""
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "1")
        handle = daemon()
        client = ServeClient(port=handle.port)
        done = client.submit_and_wait(body("lbm"), timeout=120)
        result = done.body["result"]
        assert result["status"] == "failed"
        assert result["attempts"] >= 2           # initial + 1 retry
        failure = result["failure"]
        assert failure["exc_type"] == "InjectedError"
        assert "injected" in failure["message"].lower()
        assert_no_leaks(handle.app)

        # The fingerprint never reached the cache: once the fault is
        # lifted, a resubmission is a fresh miss that now succeeds.
        monkeypatch.delenv("REPRO_FAULTS")
        retry = client.submit_and_wait(body("lbm"), timeout=120)
        assert retry.body["result"]["status"] == "ok"
        assert_no_leaks(handle.app)

    def test_concurrent_clients_under_random_crashes(self, daemon,
                                                     monkeypatch):
        """Many clients hammering a faulty daemon concurrently: every
        submission — hit, miss, duplicate — terminates, and the book-
        keeping balances."""
        monkeypatch.setenv("REPRO_FAULTS", "crash~2/7:first=1")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "2")
        handle = daemon(queue_depth=64, quota=0)
        # Pre-warm one fingerprint so the mix includes inline hits.
        run_batch([RunRequest("lbm", "spp", "psa", n_accesses=N)])

        outcomes = []
        failures = []

        def _client(name, workloads):
            client = ServeClient(port=handle.port, client_id=name,
                                 timeout=120)
            try:
                for workload in workloads:
                    response = client.submit_and_wait(body(workload),
                                                      timeout=120)
                    if response.status == 200:
                        outcomes.append("hit")
                    else:
                        outcomes.append(
                            response.body["result"]["status"])
            except ServeClientError as exc:
                failures.append((name, exc))

        plans = [("alice", ["lbm", "milc", "mcf"]),
                 ("bob", ["lbm", "mcf", "omnetpp"]),
                 ("carol", ["milc", "omnetpp", "lbm"])]
        threads = [threading.Thread(target=_client, args=plan)
                   for plan in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
            assert not thread.is_alive(), "a soak client hung"

        assert failures == []
        assert len(outcomes) == 9
        # Every terminal state is structured; transient crashes healed
        # by retry, so nothing ends failed/timeout in this scenario.
        assert set(outcomes) <= {"hit", "ok"}
        assert_no_leaks(handle.app)

    def test_shutdown_mid_queue_fails_waiters_structurally(self, daemon):
        """Stopping a daemon with jobs still queued must answer every
        outstanding long-poll with a structured failure, not a hang."""
        handle = daemon()
        handle.pause()
        client = ServeClient(port=handle.port, timeout=60)
        submitted = client.submit(body("milc"))
        assert submitted.status == 202
        job_id = submitted.body["job_id"]

        results = []

        def _waiter():
            results.append(client.wait(job_id, timeout=60))

        waiter = threading.Thread(target=_waiter)
        waiter.start()
        # Only pull the plug once the long-poll is parked on the job's
        # completion event (asyncio.Event's private waiter list is the
        # only observable signal that the GET reached its await).
        job = handle.app.queue.get(job_id)
        deadline = time.monotonic() + 10
        while not job.done._waiters and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.done._waiters, "long-poll never reached the daemon"
        handle.stop()
        waiter.join(timeout=30)
        assert not waiter.is_alive(), "waiter hung across shutdown"
        result = results[0].body["result"]
        assert result["status"] == "failed"
        assert result["source"] == "shutdown"
        assert result["failure"]["kind"] == "shutdown"
        assert_no_leaks(handle.app)
