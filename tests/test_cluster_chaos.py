"""Cluster chaos soak: SIGKILL replicas mid-queue under a network storm.

The HA acceptance gates, in the style of ``test_storage_chaos.py`` but
for the transport plane:

1. **Structured termination** — every request submitted through the
   failover client reaches a terminal outcome even while replicas are
   being killed -9 and ``REPRO_NET_FAULTS`` wrecks both directions of
   every connection; nothing hangs or escapes as an unhandled
   exception.
2. **Never bitwise-wrong** — every served payload is byte-identical
   (JSON, sorted keys, ``wall_time_s`` scrubbed) to the same request
   run in a clean single-daemon universe.  Garbled responses, duplicate
   responses, and half-closed sockets may cost retries, never silent
   corruption.
3. **Healable** — after the storm, one ``doctor --repair`` pass leaves
   the shared cache healthy and the membership registry free of the
   dead replica's record.

A campaign sweep through the replicas (``run_missing(replicas=...)``)
meets the same gates with one replica SIGKILLed mid-sweep: it completes
with every cell equal to a local sweep's.

Replicas are real ``repro serve --cluster`` subprocesses over one
shared cache dir, so kill -9 is a genuine process death: the queue and
member heartbeat die instantly, the published cache entries survive.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.execute import run_missing
from repro.campaign.store import CampaignStore
from repro.serve import cluster, netfaults
from repro.serve.client import RetryPolicy, ServeClient, ServeClientError
from repro.sim import cache as disk_cache
from repro.sim import doctor, faultplan, runner
from repro.sim.runner import RunRequest, run_batch
from repro.verify.golden import metrics_digest

from conftest import live_children, tiny_campaign, wait_until_gone

N = 620
REPLICAS = 3
REQUESTS = 8

#: Daemon-side storm (inherited by the subprocesses via the env):
#: early ops on accept/respond get refused, reset, garbled, duplicated.
DAEMON_STORM = ("refuse~2/5:site=daemon.accept;"
                "reset~2/7:site=daemon.respond;"
                "garble~2/11:site=daemon.respond;"
                "dup-response~1/13:site=daemon.respond;"
                "half-close~1/3:site=daemon.respond")

#: Client-side storm (armed in-process): dials refused, sends reset,
#: reads garbled.  Connections are kept alive, so ``client.connect``
#: fires once per dial, not per request, and the single-replica test
#: makes only ~7 reads: the dial and read samples are drawn from the
#: first 5 ops, which both tests below reach.
CLIENT_STORM = ("refuse~2/7:site=client.connect:of=5;"
                "reset~1/5:site=client.send;"
                "garble~2/11:site=client.recv:of=5")


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos"))
    monkeypatch.delenv("REPRO_NET_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_IO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    monkeypatch.setenv("REPRO_MEMBER_TTL", "2.0")
    netfaults.disarm()
    runner.clear_cache()
    yield
    netfaults.disarm()
    runner.clear_cache()


def assert_every_sampled_fault_fired():
    """Each client-side site ran past the last op its clause samples, so
    every sampled fault fired (call before ``disarm``, which zeroes the
    counters)."""
    for clause in netfaults.parse(CLIENT_STORM):
        sampled = faultplan.sample(clause.seed, clause.count,
                                   clause.window, clause.site)
        assert netfaults.PLANE.counters[clause.site] > max(sampled), \
            (clause.site, netfaults.PLANE.counters)


def req_body(n_accesses):
    return {"workload": "lbm", "prefetcher": "spp", "variant": "psa",
            "n_accesses": n_accesses}


def engine_request(body):
    return RunRequest(body["workload"], body["prefetcher"],
                      body["variant"], n_accesses=body["n_accesses"])


def digest(metrics_dict) -> str:
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
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos"))
    runner.clear_cache()
    return truth


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_replica(port: int, extra_env: dict) -> subprocess.Popen:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env.update(extra_env)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--cluster", "--jobs", "2", "--log-level", "warning"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def wait_healthy(port: int, deadline_s: float = 60.0) -> None:
    probe = ServeClient(port=port, timeout=5.0,
                        policy=RetryPolicy(retries=0, backoff_s=0.0))
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            if probe.healthz().ok:
                return
        except ServeClientError:
            time.sleep(0.1)
    raise AssertionError(f"replica on port {port} never became healthy")


@pytest.fixture
def replicas(tmp_path):
    procs = []

    def _boot(count, extra_env, port=None):
        for port in [port] if port else [free_port()
                                         for _ in range(count)]:
            procs.append((port, spawn_replica(port, extra_env)))
        for port, _ in procs:
            wait_healthy(port)
        return procs

    yield _boot
    workers = []
    for _, proc in procs:
        workers += live_children(proc.pid)
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)
    # A SIGKILLed replica's engine workers exit on their own.
    assert wait_until_gone(workers) == []


class TestClusterChaosSoak:
    def test_kill_minus_nine_under_net_storm(self, tmp_path, monkeypatch,
                                             replicas):
        bodies = [req_body(N + i) for i in range(REQUESTS)]
        truth = clean_truth(tmp_path, monkeypatch,
                            [engine_request(b) for b in bodies])

        chaos_env = {"REPRO_CACHE_DIR": str(tmp_path / "chaos"),
                     "REPRO_NET_FAULTS": DAEMON_STORM,
                     "REPRO_MEMBER_TTL": "2.0",
                     "REPRO_RETRY_BACKOFF": "0.01"}
        procs = replicas(REPLICAS, chaos_env)
        assert len(cluster.load_members()) == REPLICAS

        netfaults.arm(CLIENT_STORM)
        policy = RetryPolicy(retries=4, backoff_s=0.01,
                             breaker_threshold=100)
        outcomes = {}
        failures = {}

        def _drive(body):
            client = cluster.ClusterClient(
                client_id=f"chaos-{body['n_accesses']}", timeout=30.0,
                policy=policy, min_slice_s=10.0)
            try:
                outcomes[body["n_accesses"]] = client.submit_and_wait(
                    body, timeout=240.0)
            except Exception as exc:          # invariant 1 gate
                failures[body["n_accesses"]] = exc

        threads = [threading.Thread(target=_drive, args=(body,))
                   for body in bodies]
        for thread in threads:
            thread.start()
        # Kill -9 one replica while the queue is hot: its in-memory
        # queue and heartbeat die instantly, its published work stays.
        time.sleep(0.8)
        procs[0][1].kill()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(t.is_alive() for t in threads)

        # 1. Structured termination: every request has a terminal reply.
        assert failures == {}
        assert sorted(outcomes) == sorted(b["n_accesses"] for b in bodies)

        # 2. Never bitwise-wrong: every payload matches the clean
        #    universe byte-for-byte (wall time scrubbed).
        for body in bodies:
            reply = outcomes[body["n_accesses"]]
            assert reply.run_status == "ok", reply.body
            payload = reply.result["metrics"]
            assert payload is not None
            key = engine_request(body).key()
            assert digest(payload) == truth[key]
        assert_every_sampled_fault_fired()

        # 3. Healable: disarm, one doctor pass, registry + cache clean.
        netfaults.disarm()
        time.sleep(2.5)                      # let the dead record expire
        report = doctor.diagnose(repair=True)
        assert report.healthy, report.describe()
        live = cluster.load_members(include_stale=True)
        dead_id = None
        for port, proc in procs:
            if proc.poll() is not None:
                dead_id = cluster.member_id_for("127.0.0.1", port)
        assert dead_id is not None
        assert dead_id not in {m.member_id for m in live}
        followup = doctor.diagnose(repair=True)
        assert followup.count(layer="member") == 0
        verify = disk_cache.verify()
        assert not verify.corrupt and not verify.stale


class TestStormOnlyEquivalence:
    def test_single_replica_storm_matches_clean_universe(
            self, tmp_path, monkeypatch, replicas):
        bodies = [req_body(N + i) for i in range(3)]
        truth = clean_truth(tmp_path, monkeypatch,
                            [engine_request(b) for b in bodies])
        chaos_env = {"REPRO_CACHE_DIR": str(tmp_path / "chaos"),
                     "REPRO_NET_FAULTS": DAEMON_STORM,
                     "REPRO_MEMBER_TTL": "2.0",
                     "REPRO_RETRY_BACKOFF": "0.01"}
        replicas(1, chaos_env)
        netfaults.arm(CLIENT_STORM)
        client = cluster.ClusterClient(
            client_id="storm", timeout=30.0,
            policy=RetryPolicy(retries=4, backoff_s=0.01,
                               breaker_threshold=100))
        for body in bodies:
            reply = client.submit_and_wait(body, timeout=240.0)
            assert reply.run_status == "ok"
            key = engine_request(body).key()
            assert digest(reply.result["metrics"]) == truth[key]
        assert_every_sampled_fault_fired()


class TestCampaignOverCluster:
    def test_sweep_survives_a_killed_replica(self, tmp_path, monkeypatch,
                                             replicas):
        campaign = tiny_campaign(n_accesses=3000, workloads=(
            "lbm", "milc", "mcf", "omnetpp", "soplex", "libquantum"))
        assert len(campaign.cells()) == 12

        # The truth: a local sweep in a fresh cache universe.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
        runner.clear_cache()
        with CampaignStore(tmp_path / "clean.sqlite") as store:
            assert run_missing(campaign, store=store, jobs=2).complete
            truth = {index: metrics_digest(metrics) for index, metrics
                     in store.metrics_for(campaign).items()}
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos"))
        runner.clear_cache()

        procs = replicas(2, {"REPRO_CACHE_DIR": str(tmp_path / "chaos"),
                             "REPRO_MEMBER_TTL": "2.0",
                             "REPRO_RETRY_BACKOFF": "0.01"})
        objects = tmp_path / "chaos" / "objects"
        done = threading.Event()
        killed_mid_sweep = []
        orphans = []

        def kill_after_two_cells():
            victim = procs[0][1]
            while not done.is_set():
                workers = live_children(victim.pid)
                if len(list(objects.glob("*/*.json"))) >= 2 and workers:
                    victim.kill()
                    killed_mid_sweep.append(not done.is_set())
                    orphans.extend(workers)
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_after_two_cells)
        killer.start()
        try:
            with CampaignStore(tmp_path / "chaos.sqlite") as store:
                report = run_missing(
                    campaign, store=store,
                    replicas=[("127.0.0.1", port) for port, _ in procs])
                stored = store.metrics_for(campaign)
        finally:
            done.set()
            killer.join(timeout=30)
        assert not killer.is_alive()
        assert killed_mid_sweep == [True]
        # Its engine workers did not outlive it.
        assert wait_until_gone(orphans) == []
        assert report.complete and report.failed == 0, report.describe()
        assert report.ok == 12
        assert {index: metrics_digest(metrics)
                for index, metrics in stored.items()} == truth

    def test_crashing_replica_peer_completes(self, tmp_path, monkeypatch,
                                             replicas):
        # One replica answers /healthz but crashes the first run of every
        # batch it drains (REPRO_FAULTS=crash@0); each cell it fails goes
        # to the healthy peer before anything is recorded.
        campaign = tiny_campaign(n_accesses=1360,
                                 workloads=("lbm", "milc", "mcf"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        runner.clear_cache()
        env = {"REPRO_CACHE_DIR": str(tmp_path / "shared"),
               "REPRO_RETRY_BACKOFF": "0.01"}
        healthy = free_port()
        while True:
            crashing = free_port()
            if crashing != healthy and any(cluster.rendezvous_rank(
                    cell.digest, sorted(
                        cluster.member_id_for("127.0.0.1", port)
                        for port in (healthy, crashing)))[0]
                    == cluster.member_id_for("127.0.0.1", crashing)
                    for cell in campaign.cells()):
                break
        replicas(1, dict(env, REPRO_FAULTS="crash@0"), port=crashing)
        procs = replicas(1, env, port=healthy)
        with CampaignStore(tmp_path / "crash.sqlite") as store:
            report = run_missing(
                campaign, store=store,
                replicas=[("127.0.0.1", port) for port, _ in procs])
            assert store.status(campaign).complete
        assert report.failed == 0 and report.ok == 6, report.describe()
        engine = ServeClient(port=crashing).metrics().body["engine"]
        assert engine["failed"] >= 1          # the fault did fire there
