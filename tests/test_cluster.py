"""Cluster layer: membership registry, rendezvous placement, failover.

The HA contract under test: N daemons over one shared cache dir need no
consensus — membership is heartbeat-renewed files (reaped when stale,
healed by the doctor), placement is rendezvous hashing on the run-key
digest (all clients agree; coalescing still wins), and failover is just
walking the rendezvous order, deduplicated by the content-addressed
cache (work a dead replica published re-serves as a hit anywhere).
"""

import json
import os
import time

import pytest

from repro.sim import cache as disk_cache
from repro.sim import doctor, runner
from repro.sim.config import ConfigurationError
from repro.serve import cluster, netfaults, protocol
from repro.serve.app import start_in_thread
from repro.serve.client import RetryPolicy, ServeClient, ServeClientError

N = 600


@pytest.fixture(autouse=True)
def fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NET_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_MEMBER_TTL", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    netfaults.disarm()
    runner.clear_cache()
    yield
    netfaults.disarm()
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
    netfaults.disarm()
    for handle in handles:
        handle.stop()


def req_body(**kwargs):
    body = {"workload": "lbm", "prefetcher": "spp", "variant": "psa",
            "n_accesses": N}
    body.update(kwargs)
    return body


def policy(retries=2):
    return RetryPolicy(retries=retries, backoff_s=0.01,
                       breaker_threshold=100)


class TestRegistry:
    def test_register_heartbeat_deregister(self):
        record = cluster.register("127.0.0.1", 9001)
        assert record.path.exists()
        loaded = cluster.load_members()
        assert [m.member_id for m in loaded] == [record.member_id]
        assert loaded[0].port == 9001 and not loaded[0].stale
        cluster.deregister(record)
        assert cluster.load_members() == []

    def test_member_id_is_filesystem_safe_and_stable(self):
        assert cluster.member_id_for("127.0.0.1", 8787) == \
            "127.0.0.1-8787"
        weird = cluster.member_id_for("fe80::1%eth0", 1)
        assert "/" not in weird and ":" not in weird

    def test_reregister_same_port_supersedes(self):
        first = cluster.register("127.0.0.1", 9001)
        second = cluster.register("127.0.0.1", 9001)
        assert first.member_id == second.member_id
        assert len(cluster.load_members()) == 1

    def test_stale_members_filtered_and_reaped(self):
        live = cluster.register("127.0.0.1", 9001)
        dead = cluster.register("127.0.0.1", 9002)
        old = time.time() - cluster.member_ttl() - 5
        os.utime(dead.path, (old, old))
        fresh_ids = [m.member_id for m in cluster.load_members()]
        assert fresh_ids == [live.member_id]
        all_ids = [m.member_id for m in
                   cluster.load_members(include_stale=True)]
        assert dead.member_id in all_ids
        reaped = cluster.reap_stale()
        assert reaped == [dead.member_id]
        assert not dead.path.exists() and live.path.exists()

    def test_corrupt_record_is_skipped_not_fatal(self):
        cluster.register("127.0.0.1", 9001)
        bad = cluster.members_dir() / "torn.json"
        bad.write_bytes(b'{"member_id": "torn", "ho')
        assert len(cluster.load_members(include_stale=True)) == 1

    def test_member_ttl_knob_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMBER_TTL", "not-a-number")
        with pytest.raises(ConfigurationError):
            cluster.member_ttl()


class TestRendezvous:
    def test_every_client_agrees_and_covers_all_members(self):
        members = [f"m{i}" for i in range(5)]
        digests = [f"digest-{i:03d}" for i in range(200)]
        placed = {d: cluster.rendezvous_rank(d, members)[0]
                  for d in digests}
        again = {d: cluster.rendezvous_rank(d, list(reversed(members)))[0]
                 for d in digests}
        assert placed == again                 # order-independent
        assert set(placed.values()) == set(members)   # spreads load

    def test_member_loss_remaps_only_its_keys(self):
        members = [f"m{i}" for i in range(5)]
        digests = [f"digest-{i:03d}" for i in range(200)]
        before = {d: cluster.rendezvous_rank(d, members)[0]
                  for d in digests}
        survivors = [m for m in members if m != "m2"]
        after = {d: cluster.rendezvous_rank(d, survivors)[0]
                 for d in digests}
        for digest in digests:
            if before[digest] != "m2":
                assert after[digest] == before[digest]

    def test_request_digest_matches_daemon_job_identity(self, daemon):
        handle = daemon()
        digest = protocol.request_digest(req_body())
        client = ServeClient(port=handle.port, policy=policy())
        reply = client.submit_and_wait(req_body(), timeout=120.0)
        assert reply.run_status == "ok"
        job_id = (reply.body.get("job_id")
                  or reply.body.get("result", {}).get("job_id"))
        if job_id:                   # inline hits carry the job id
            assert digest.startswith(job_id)


class TestEndpoints:
    def test_healthz_carries_member_and_draining(self, daemon):
        handle = daemon(cluster=True)
        client = ServeClient(port=handle.port, policy=policy())
        reply = client.healthz()
        assert reply.body["draining"] is False
        assert reply.body["member_id"] == cluster.member_id_for(
            handle.host, handle.port)

    def test_cluster_endpoint_lists_members(self, daemon):
        first = daemon(cluster=True)
        second = daemon(cluster=True)
        client = ServeClient(port=first.port, policy=policy())
        reply = client._request("GET", "/cluster")
        assert reply.status == 200 and reply.body["enabled"]
        ids = {m["member_id"] for m in reply.body["members"]}
        assert cluster.member_id_for(first.host, first.port) in ids
        assert cluster.member_id_for(second.host, second.port) in ids

    def test_non_cluster_daemon_serves_cluster_view(self, daemon):
        handle = daemon()
        client = ServeClient(port=handle.port, policy=policy())
        reply = client._request("GET", "/cluster")
        assert reply.status == 200
        assert reply.body["enabled"] is False
        assert reply.body["member_id"] is None

    def test_draining_daemon_rejects_with_503(self, daemon):
        handle = daemon()
        client = ServeClient(port=handle.port, policy=policy())
        handle.app._closing = True
        try:
            reply = client.submit(req_body())
            assert reply.status == 503
            assert reply.body["error"] == "draining"
            assert reply.retry_after_s is not None
        finally:
            handle.app._closing = False

    def test_clean_shutdown_deregisters(self, daemon):
        handle = daemon(cluster=True)
        member_id = cluster.member_id_for(handle.host, handle.port)
        assert member_id in {m.member_id for m in cluster.load_members()}
        handle.stop()
        assert member_id not in {
            m.member_id for m in
            cluster.load_members(include_stale=True)}


class TestClusterClient:
    def test_submit_prefers_rendezvous_replica(self, daemon):
        handles = [daemon(cluster=True) for _ in range(2)]
        client = cluster.ClusterClient(client_id="t", timeout=60.0,
                                       policy=policy())
        assert len(client.members) == 2
        reply = client.submit_and_wait(req_body(), timeout=120.0)
        assert reply.run_status == "ok"
        assert client.failovers == 0

    def test_failover_to_surviving_replica(self, daemon):
        live = daemon()
        # A registry with one dead address: whichever rank order the
        # digest draws, the dead replica forfeits and the live one
        # serves.
        dead_port = live.port + 1
        client = cluster.ClusterClient(
            replicas=[("127.0.0.1", dead_port),
                      ("127.0.0.1", live.port)],
            timeout=30.0, policy=policy(retries=0), min_slice_s=5.0)
        reply = client.submit_and_wait(req_body(), timeout=120.0)
        assert reply.run_status == "ok"

    def test_dead_replica_work_reserves_as_hit(self, daemon):
        first = daemon(cluster=True)
        warm = ServeClient(port=first.port, policy=policy())
        direct = warm.submit_and_wait(req_body(), timeout=120.0)
        assert direct.run_status == "ok"
        first.stop()                 # published work outlives the daemon
        second = daemon(cluster=True)
        client = cluster.ClusterClient(client_id="t", timeout=30.0,
                                       policy=policy(retries=0))
        reply = client.submit_and_wait(req_body(), timeout=60.0)
        assert reply.status == 200 and reply.body["source"] == "cache"

    def test_refresh_discovers_new_replicas(self, daemon):
        client = cluster.ClusterClient(client_id="t", policy=policy())
        assert client.members == []
        handle = daemon(cluster=True)
        client.refresh()
        assert client.members == [
            cluster.member_id_for(handle.host, handle.port)]

    def test_refresh_and_close_release_replica_connections(
            self, monkeypatch):
        kept = cluster.register("127.0.0.1", 1111)
        dropped = cluster.register("127.0.0.1", 2222)
        client = cluster.ClusterClient(client_id="t", policy=policy())
        closed = []
        monkeypatch.setattr(ServeClient, "close",
                            lambda self: closed.append(self.port))
        for member in client.members:
            client._client(member)
        cluster.deregister(dropped)
        client.refresh()
        assert closed == [2222]
        client.close()
        assert closed == [2222, 1111]
        cluster.deregister(kept)

    def test_no_replicas_raises_cleanly(self):
        client = cluster.ClusterClient(client_id="t", policy=policy())
        with pytest.raises(ServeClientError):
            client.submit_and_wait(req_body(), timeout=1.0)

    def test_healthy_members_excludes_dead(self, daemon):
        live = daemon(cluster=True)
        dead = cluster.register("127.0.0.1", live.port + 1)
        client = cluster.ClusterClient(client_id="t", policy=policy())
        healthy = client.healthy_members(probe_timeout=2.0)
        assert healthy == [cluster.member_id_for(live.host, live.port)]
        cluster.deregister(dead)


class TestDoctorMembers:
    def test_doctor_heals_corrupt_stale_and_orphans(self):
        cluster.register("127.0.0.1", 9001)
        root = cluster.members_dir()
        (root / "torn.json").write_bytes(b'{"member_id": "to')
        stale = cluster.register("127.0.0.1", 9002)
        old = time.time() - cluster.member_ttl() - 5
        os.utime(stale.path, (old, old))
        orphan = root / "leak.tmp"
        orphan.write_bytes(b"half a heartbeat")
        os.utime(orphan, (old, old))

        report = doctor.diagnose(repair=True, tmp_age_s=1.0)
        assert report.healthy
        kinds = {f.kind for f in report.findings if f.layer == "member"}
        assert kinds == {"corrupt", "stale", "tmp-orphan"}
        assert report.scanned["member"] >= 2
        survivors = [m.member_id for m in
                     cluster.load_members(include_stale=True)]
        assert survivors == [cluster.member_id_for("127.0.0.1", 9001)]
        assert not orphan.exists()

    def test_records_clients_skip_are_reaped_as_corrupt(self):
        live = cluster.register("127.0.0.1", 9001)
        root = cluster.members_dir()
        payload = live.to_payload()
        bad_pid = root / "bad-pid.json"
        bad_pid.write_text(json.dumps(dict(payload, pid="not-a-pid")))
        no_id = root / "no-id.json"
        no_id.write_text(json.dumps(
            {k: v for k, v in payload.items() if k != "member_id"}))
        assert [m.member_id for m in
                cluster.load_members(include_stale=True)] == [
                    live.member_id]

        report = doctor.diagnose(repair=True)
        assert report.count("member", "corrupt") == 2 and report.healthy
        assert not bad_pid.exists() and not no_id.exists()
        assert live.path.exists()

    def test_doctor_clean_on_healthy_registry(self):
        cluster.register("127.0.0.1", 9001)
        report = doctor.diagnose(repair=True)
        assert report.count(layer="member") == 0


class TestStartupValidation:
    """A daemon starts with or without the watchdog, at any width."""

    def test_allows_run_timeout_with_pool_engine(self, monkeypatch,
                                                 daemon):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "30")
        handle = daemon(engine_jobs=2)
        client = ServeClient(port=handle.port, policy=policy())
        assert client.healthz().ok

    def test_allows_serial_engine_without_timeout(self, daemon):
        handle = daemon(engine_jobs=1)
        client = ServeClient(port=handle.port, policy=policy())
        assert client.healthz().ok


class TestFailureSurfacing:
    """Satellite: permanent failures carry the structured RunFailure."""

    def test_submit_and_wait_surfaces_failure_body(self, daemon,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        handle = daemon()
        client = ServeClient(port=handle.port, policy=policy())
        reply = client.submit_and_wait(req_body(), timeout=120.0)
        assert reply.run_status == "failed"
        assert reply.failure is not None
        assert reply.failure.get("kind") not in (None, "shutdown")
        assert reply.result.get("source") != "shutdown"

    def test_ok_run_has_no_failure(self, daemon):
        handle = daemon()
        client = ServeClient(port=handle.port, policy=policy())
        reply = client.submit_and_wait(req_body(), timeout=120.0)
        assert reply.run_status == "ok" and reply.failure is None


class TestClusterCLI:
    def test_status_json(self, daemon, capsys):
        from repro import cli

        daemon(cluster=True)
        code = cli.main(["cluster", "status", "--json"])
        out = capsys.readouterr().out
        status = json.loads(out)
        assert code == 0
        assert status["alive"] == 1
        assert status["members"][0]["health"] == "ok"

    def test_status_empty_registry(self, capsys):
        from repro import cli

        code = cli.main(["cluster", "status"])
        out = capsys.readouterr().out
        assert code == 0 and "none registered" in out

    def test_status_flags_unreachable(self, daemon, capsys):
        from repro import cli

        dead = cluster.register("127.0.0.1", 1)   # nothing listens
        code = cli.main(["cluster", "status", "--json",
                         "--probe-timeout", "1"])
        status = json.loads(capsys.readouterr().out)
        assert code == 1
        assert status["members"][0]["health"] == "unreachable"
        cluster.deregister(dead)
