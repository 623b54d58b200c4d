"""Kept-alive serve connections, on both ends of the wire.

``ServeClient`` sends every request on a pooled connection, and the
daemon drains idle connections when it shuts down.  Covered here:

- a daemon with an idle kept-alive client stops at once, without the
  5 s drain grace and without a ``CancelledError`` traceback;
- sequential requests share one dial;
- a pooled connection to a daemon that was restarted on the same port
  is re-dialed before use, so the request costs no transport retry;
- threads sharing one client each get a correct reply;
- a 413 ends its connection, so an unread body is never parsed as the
  next request, and the client's next request is answered normally.
"""

import json
import logging
import socket
import sys
import threading
import time

import pytest

from repro.serve import app as serve_app
from repro.serve.app import start_in_thread
from repro.serve.client import RetryPolicy, ServeClient
from repro.sim import cache as disk_cache
from repro.sim import runner
from repro.sim.runner import RunRequest, run_batch

N = 600


@pytest.fixture(autouse=True)
def fresh_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_NET_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    runner.clear_cache()
    yield
    runner.clear_cache()


@pytest.fixture
def daemon():
    handles = []

    def _boot(**kwargs):
        kwargs.setdefault("engine_jobs", 1)
        kwargs.setdefault("batch_linger_s", 0.01)
        kwargs.setdefault("heal_on_start", False)
        handle = start_in_thread(**kwargs)
        handles.append(handle)
        return handle

    yield _boot
    for handle in handles:
        handle.stop()


def body(variant="psa"):
    return {"workload": "lbm", "prefetcher": "spp", "variant": variant,
            "n_accesses": N}


def cached_payloads(variants):
    """Fill the disk cache; return each variant's stored payload."""
    requests = [RunRequest("lbm", "spp", v, n_accesses=N) for v in variants]
    run_batch(requests, jobs=1)
    return {v: disk_cache.load_payload(r.resolved().key())
            for v, r in zip(variants, requests)}


def client_for(handle, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("policy", RetryPolicy(retries=2, backoff_s=0.01))
    return ServeClient(port=handle.port, **kwargs)


def idle_raw_connection(handle) -> socket.socket:
    """A plain HTTP/1.1 client that asks once and keeps the socket."""
    sock = socket.create_connection(("127.0.0.1", handle.port), timeout=5)
    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert sock.recv(65536).startswith(b"HTTP/1.1 200")
    return sock


def idle_serve_client(handle) -> ServeClient:
    client = client_for(handle)
    assert client.healthz().ok
    return client


class TestShutdownDrain:
    @pytest.mark.parametrize("connect", [idle_raw_connection,
                                         idle_serve_client])
    def test_idle_kept_alive_client_does_not_stall_shutdown(
            self, daemon, caplog, connect):
        handle = daemon()
        idle = connect(handle)
        with caplog.at_level(logging.WARNING):
            begin = time.monotonic()
            handle.stop()
            took = time.monotonic() - begin
        assert not handle.thread.is_alive()
        assert took < 1.0, f"stop() took {took:.2f}s"
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] \
            == []
        idle.close()

    def test_response_while_draining_says_connection_close(self, daemon):
        handle = daemon()
        handle.app._call_on_loop(setattr, handle.app, "_closing", True)
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = read_until_eof(sock)
        assert reply.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in reply


class TestPooling:
    def test_sequential_hits_share_one_dial(self, daemon):
        payloads = cached_payloads(["psa"])
        client = client_for(daemon())
        with client:
            for _ in range(200):
                reply = client.submit(body())
                assert reply.status == 200
                assert reply.body["metrics"] == payloads["psa"]
            assert client.dials == 1
            assert client.transport_retries == 0

    def test_restarted_daemon_is_redialed_without_a_retry(self, daemon):
        first = daemon()
        client = client_for(first)
        assert client.healthz().ok
        first.stop()
        second = daemon(port=first.port)
        assert second.port == first.port
        reply = client.healthz()
        assert reply.ok and reply.body["ok"] is True
        assert client.transport_retries == 0
        assert client.dials == 2
        client.close()

    def test_threads_share_one_client(self, daemon):
        variants = ["psa", "original"]
        payloads = cached_payloads(variants)
        client = client_for(daemon())
        errors = []

        def drive(index):
            try:
                for step in range(50):
                    variant = variants[(index + step) % len(variants)]
                    reply = client.submit(body(variant))
                    assert reply.status == 200, reply.body
                    assert reply.body["metrics"] == payloads[variant]
            except Exception as exc:        # reported below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads as often as we can
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 1 <= client.dials <= 8
        # Every connection dialled went back to the pool exactly once:
        # a lost or doubled pool update breaks this.
        assert len(client._idle) == client.dials
        assert len(set(map(id, client._idle))) == client.dials
        client.close()

    def test_close_empties_the_pool_and_the_client_stays_usable(
            self, daemon):
        client = client_for(daemon())
        assert client.healthz().ok
        client.close()
        assert client.healthz().ok
        assert client.dials == 2
        client.close()


class TestPayloadTooLarge:
    def test_next_request_after_a_413_is_answered(self, daemon,
                                                  monkeypatch):
        monkeypatch.setattr(serve_app, "MAX_BODY_BYTES", 256)
        client = client_for(daemon())
        big = client._request("POST", "/submit",
                              dict(body(), pad="x" * 1024))
        assert big.status == 413
        assert big.body["error"] == "payload_too_large"
        reply = client.healthz()
        assert reply.ok and reply.body["ok"] is True
        assert client.transport_retries == 0
        client.close()

    def test_unread_body_is_not_parsed_as_a_request(self, daemon):
        handle = daemon()
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        head = (f"POST /submit HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {serve_app.MAX_BODY_BYTES + 1}\r\n\r\n")
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=5) as sock:
            sock.sendall(head.encode() + smuggled)
            reply = read_until_eof(sock)
        assert reply.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1") == 1
        headers, _, payload = reply.partition(b"\r\n\r\n")
        assert json.loads(payload)["error"] == "payload_too_large"


def read_until_eof(sock) -> bytes:
    """Everything the daemon sends before it ends the connection."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)
