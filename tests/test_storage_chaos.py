"""Storage chaos soak: mixed IO faults across cache + snapshot + store
while real traffic flows, then ``repro doctor --repair`` heals the
universe back to clean.

The invariants under chaos (the acceptance gates of the fault shim):

1. **Structured termination** — every request/cell reaches a terminal
   outcome (served, failed, or skipped); nothing hangs or escapes as an
   unhandled exception.
2. **Never bitwise-wrong** — any payload that *is* served or recorded
   is byte-identical (JSON, sorted keys) to the same request run in a
   clean universe.  Torn/partial state may cost re-simulation, never
   corruption.
3. **Healable** — after disarming, one ``doctor --repair`` pass (plus a
   healthy ``run_missing`` for lost cells) restores ``cache.verify()``
   and the campaign store to zero findings.

Plus the resilient-client unit/E2E tests: deterministic backoff,
circuit-breaker state machine, bounded connection-refused budgets, and
``submit_and_wait`` surviving a daemon restart mid-job.
"""

import json
import threading
import time

import pytest

from repro.campaign.execute import run_missing
from repro.campaign.store import CampaignStore
from repro.serve import ServeClient
from repro.serve.app import start_in_thread
from repro.serve.client import (
    CircuitBreaker,
    RetryPolicy,
    ServeClientError,
)
from repro.sim import cache as disk_cache
from repro.sim import doctor, iofaults, runner
from repro.sim.runner import RunRequest, run_batch

from conftest import tiny_campaign

N = 620


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos"))
    monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
    monkeypatch.delenv("REPRO_CAMPAIGN_DB", raising=False)
    monkeypatch.delenv("REPRO_IO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    runner.clear_cache()
    iofaults.disarm()
    yield
    iofaults.disarm()
    runner.clear_cache()


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


def req_body(workload="lbm", variant="psa"):
    return {"workload": workload, "prefetcher": "spp",
            "variant": variant, "n_accesses": N}


def engine_request(body):
    return RunRequest(body["workload"], body["prefetcher"],
                      body["variant"], n_accesses=body["n_accesses"])


def digest(metrics_dict) -> str:
    """Canonical payload bytes, minus the wall-clock stamp (the only
    field allowed to differ between two universes of the same run)."""
    scrubbed = {k: v for k, v in metrics_dict.items()
                if k != "wall_time_s"}
    return json.dumps(scrubbed, sort_keys=True)


def clean_truth(tmp_path, monkeypatch, requests):
    """Run *requests* in a pristine cache universe; return key→digest."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
    runner.clear_cache()
    results = run_batch(requests)
    truth = {req.key(): digest(disk_cache.metrics_to_dict(m))
             for req, m in zip(requests, results)}
    # Back to the chaos universe for the remainder of the test.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos"))
    runner.clear_cache()
    return truth


#: Seeded mixed-fault storm: a handful of ops per site fail inside the
#: first window, so traffic keeps making progress while every fault
#: kind gets exercised at least somewhere.
SERVE_STORM = ("torn~2/7:site=cache;"
               "enospc~1/11:site=cache;"
               "partial-read~2/13:site=cache.read;"
               "fsync-lost~1/3:site=snapshot;"
               "eio~1/5:site=snapshot.read")

CAMPAIGN_STORM = ("eio~3/5:site=store.commit;"
                  "torn~1/9:site=cache;"
                  "enospc~1/3:site=cache")


class TestServeChaosSoak:
    def test_soak_terminates_serves_truth_and_heals(self, tmp_path,
                                                    monkeypatch, daemon):
        bodies = [req_body(w, v)
                  for w in ("lbm", "milc", "mcf")
                  for v in ("original", "psa")]
        truth = clean_truth(tmp_path, monkeypatch,
                            [engine_request(b) for b in bodies])

        # Chaos universe: pool workers inherit the env and arm lazily.
        monkeypatch.setenv(iofaults.ENV_VAR, SERVE_STORM)
        iofaults.disarm()
        handle = daemon()
        client = ServeClient(port=handle.port,
                             policy=RetryPolicy(retries=4,
                                                backoff_s=0.05))
        served = 0
        for round_no in range(2):       # second round re-reads entries
            for body in bodies:
                response = client.submit_and_wait(body, timeout=180)
                # 1: structured termination — a terminal shape, always.
                assert response.status == 200
                if "metrics" in response.body:           # cache hit
                    payload = response.body["metrics"]
                else:                                    # ran to done
                    result = response.body["result"]
                    assert result["status"] == "ok"
                    payload = result["metrics"]
                # 2: never bitwise-wrong, no matter which path served.
                key = engine_request(body).key()
                assert digest(payload) == truth[key]
                served += 1
        assert served == 2 * len(bodies)

        # 3: disarm + one doctor pass heals the universe to clean.
        monkeypatch.delenv(iofaults.ENV_VAR)
        iofaults.disarm()
        handle.stop()
        report = doctor.diagnose(repair=True)
        assert report.healthy
        after = disk_cache.verify()
        assert after.corrupt == 0 and after.stale == 0
        assert after.tmp_orphans == 0
        assert doctor.diagnose().clean


class TestCampaignChaosSoak:
    def test_run_missing_soak_under_store_faults(self, tmp_path,
                                                 monkeypatch):
        campaign = tiny_campaign(n_accesses=1440,
                                 workloads=("lbm", "milc", "mcf"))
        cells = campaign.cells()
        truth = clean_truth(tmp_path, monkeypatch,
                            [cell.request for cell in cells])

        db = tmp_path / "campaigns.sqlite"
        with CampaignStore(db) as store:
            store.register(campaign)
            iofaults.arm(CAMPAIGN_STORM)
            try:
                report = run_missing(campaign, store=store, jobs=1)
            finally:
                iofaults.disarm()
            # 1: structured termination with honest accounting: a
            # failed store write is counted, not raised.
            assert report.failed == 0
            assert report.ok + report.synced == len(cells)
            assert report.store_errors >= 1

            # 2: whatever the chaotic universe holds is either absent
            # (quarantined/lost — costs re-simulation) or bitwise-true.
            for cell in cells:
                cached = disk_cache.load(cell.key)
                if cached is not None:
                    assert digest(disk_cache.metrics_to_dict(cached)) \
                        == truth[cell.key]

            # 3: doctor + one healthy pass converge to complete.
            heal = doctor.diagnose(repair=True)
            assert heal.healthy
            assert run_missing(campaign, store=store, jobs=1).complete
            assert store.status(campaign).complete
            # Every *recorded* payload is digest-true as well.  (A cell
            # whose torn cache entry was quarantined may stay absent
            # from the cache — the store row is the record of truth.)
            recorded = store._conn.execute(
                "SELECT cell_index, metrics_json FROM results "
                "WHERE campaign_id = ? AND status = 'ok'",
                (campaign.campaign_id,)).fetchall()
            assert len(recorded) == len(cells)
            for index, metrics_json in recorded:
                assert digest(json.loads(metrics_json)) \
                    == truth[cells[index].key]
        assert doctor.diagnose().clean


class TestRetryPolicy:
    def test_delay_is_deterministic_and_capped(self):
        policy = RetryPolicy(retries=4, backoff_s=0.1, max_backoff_s=2.0)
        assert policy.delay_s(2, "x") == policy.delay_s(2, "x")
        assert policy.delay_s(2, "x") != policy.delay_s(3, "x")
        assert policy.delay_s(2, "x") != policy.delay_s(2, "y")
        for attempt in range(12):
            delay = policy.delay_s(attempt, "t")
            assert 0.0 < delay <= 2.0 * 2.0     # cap + max jitter
        assert policy.delay_s(10, "t") <= 4.0

    def test_env_knobs_feed_the_default_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "2")
        monkeypatch.setenv("REPRO_CLIENT_BACKOFF", "0.25")
        policy = RetryPolicy()
        assert policy.retries == 2
        assert policy.backoff_s == 0.25


class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.05)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.state == "half-open"
        assert breaker.allow()          # the single probe
        assert not breaker.allow()      # ...and only the single probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()


class TestClientResilience:
    def test_refused_budget_is_bounded_and_counted(self):
        client = ServeClient(port=1,        # nothing listens on port 1
                             policy=RetryPolicy(retries=2,
                                                backoff_s=0.001))
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert "after 3 attempt(s)" in str(excinfo.value)
        assert client.transport_retries == 2

    def test_open_circuit_fails_fast(self):
        client = ServeClient(port=1,
                             policy=RetryPolicy(retries=0,
                                                backoff_s=0.001,
                                                breaker_threshold=2,
                                                breaker_cooldown_s=30.0))
        for _ in range(2):
            with pytest.raises(ServeClientError):
                client.healthz()
        start = time.monotonic()
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert "circuit open" in str(excinfo.value)
        assert time.monotonic() - start < 0.5   # no socket attempt

    def test_protocol_responses_are_never_retried(self, daemon):
        client = ServeClient(port=daemon().port,
                             policy=RetryPolicy(retries=5,
                                                backoff_s=0.001))
        assert client.submit({}).status == 400
        assert client.transport_retries == 0

    def test_submit_and_wait_survives_daemon_restart(self, daemon):
        body = req_body(workload="milc")
        gen1 = daemon()
        port = gen1.port
        client = ServeClient(port=port,
                             policy=RetryPolicy(retries=10,
                                                backoff_s=0.05))

        def restart():
            gen1.stop()
            daemon(port=port)       # new daemon, same port, empty queue

        bouncer = threading.Thread(target=restart)
        bouncer.start()
        try:
            response = client.submit_and_wait(body, timeout=180)
        finally:
            bouncer.join(timeout=60)
        assert response.status == 200
        payload = response.body.get("metrics") \
            or response.body["result"]["metrics"]
        direct = run_batch([engine_request(body)])[0]
        assert digest(payload) == digest(disk_cache.metrics_to_dict(direct))

    def test_resubmits_when_restarted_daemon_forgot_the_job(self, daemon):
        # Freeze gen1 so the job cannot finish, kill it, boot gen2 on
        # the same port: the client's wait sees transport errors / 404
        # for the old job id and must transparently resubmit.
        body = req_body(workload="mcf")
        gen1 = daemon()
        gen1.pause()
        port = gen1.port
        client = ServeClient(port=port,
                             policy=RetryPolicy(retries=10,
                                                backoff_s=0.05))
        submitted = client.submit(body)
        assert submitted.status == 202

        def restart():
            time.sleep(0.2)
            gen1.stop()
            daemon(port=port)

        bouncer = threading.Thread(target=restart)
        bouncer.start()
        try:
            response = client.submit_and_wait(body, timeout=180)
        finally:
            bouncer.join(timeout=60)
        assert response.status == 200
        payload = response.body.get("metrics") \
            or response.body["result"]["metrics"]
        direct = run_batch([engine_request(body)])[0]
        assert digest(payload) == digest(disk_cache.metrics_to_dict(direct))
