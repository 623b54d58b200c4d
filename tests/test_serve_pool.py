"""The serve daemon's engine workers: one pool for the daemon's life.

``ServeApp`` hands every batch to one ``supervisor.WorkerPool`` of its
engine width, so a miss runs on a long-lived worker process, never on
the daemon's engine thread, and never pays a fork after the first.
Covered here:

- sequential misses share one worker; a failure record names the
  worker's pid; a crashed worker costs one ``worker_restarts`` and the
  next miss runs on its replacement;
- what the engine reads per batch (``REPRO_FAULTS``,
  ``REPRO_RUN_TIMEOUT``, ``REPRO_MAX_RETRIES``) is read in the daemon,
  so it reaches a worker forked before it was set;
- a job finishes when its own run does, not when its batch does;
- no worker outlives the daemon: ``ServeHandle.stop()`` (which keeps
  its timeout: the daemon's thread closes the workers after the batch
  in flight), SIGTERM and SIGKILL;
- SIGTERM ends a worker: it does not keep the event loop's handler, and
  the next miss runs on its replacement;
- a worker holds none of the daemon's sockets, so a SIGKILLed daemon
  restarts on its port while its workers still run, and a connection
  the daemon closes reads EOF at once.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.app import start_in_thread
from repro.serve.client import ServeClient
from repro.sim import runner, supervisor

from conftest import live_children, wait_until_gone

N = 600


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
        kwargs.setdefault("engine_jobs", 1)
        kwargs.setdefault("batch_linger_s", 0.01)
        kwargs.setdefault("heal_on_start", False)
        handle = start_in_thread(**kwargs)
        handles.append(handle)
        return handle

    yield _boot
    for handle in handles:
        handle.stop()


@pytest.fixture
def started_workers(monkeypatch):
    """Every ``_Worker`` the supervisor starts from now on, in order."""
    started = []

    class Recorded(supervisor._Worker):
        def __init__(self):
            super().__init__()
            started.append(self)

    monkeypatch.setattr(supervisor, "_Worker", Recorded)
    return started


def body(n_accesses=N, workload="lbm"):
    return {"workload": workload, "variant": "psa",
            "n_accesses": n_accesses}


@pytest.fixture
def client_for():
    """A ``ServeClient`` factory; the clients close at teardown."""
    clients = []

    def _client(port, **kwargs):
        kwargs.setdefault("timeout", 120.0)
        client = ServeClient(port=port, **kwargs)
        clients.append(client)
        return client

    yield _client
    for client in clients:
        client.close()


class TestOneWorkerForTheDaemon:
    def test_sequential_misses_start_one_worker(self, daemon, client_for,
                                                started_workers):
        handle = daemon()
        client = client_for(handle.port)
        for offset in range(3):
            reply = client.submit_and_wait(body(N + offset))
            assert reply.run_status == "ok"
        assert len(started_workers) == 1
        worker = started_workers[0].process
        assert worker.is_alive() and worker.pid != os.getpid()
        handle.stop()
        assert wait_until_gone([worker.pid], 5.0) == []

    def test_failure_record_names_the_worker(self, daemon, client_for,
                                             monkeypatch):
        # Width 1, no watchdog: the run still leaves the daemon.
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        handle = daemon()
        result = client_for(handle.port).submit_and_wait(body()).result
        assert result["status"] == "failed"
        assert result["failure"]["exc_type"] == "InjectedError"
        assert result["failure"]["worker_pid"] not in (None, os.getpid())

    def test_crash_costs_one_restart_and_the_replacement_stays(
            self, daemon, client_for, monkeypatch, started_workers):
        monkeypatch.setenv("REPRO_FAULTS", "crash@0:first=1")
        handle = daemon()
        client = client_for(handle.port)
        first = client.submit_and_wait(body(N)).result
        assert first["status"] == "ok" and first["attempts"] == 2
        assert runner.engine_stats().worker_restarts == 1
        monkeypatch.delenv("REPRO_FAULTS")
        second = client.submit_and_wait(body(N + 1)).result
        assert second["status"] == "ok" and second["attempts"] == 1
        # No third worker: the second miss ran on the replacement.
        assert len(started_workers) == 2
        assert not started_workers[0].process.is_alive()
        assert started_workers[1].process.is_alive()
        assert runner.engine_stats().worker_restarts == 1

    def test_per_batch_settings_reach_a_worker_forked_before_them(
            self, daemon, client_for, monkeypatch, started_workers):
        handle = daemon()
        client = client_for(handle.port)
        assert client.submit_and_wait(body(N)).run_status == "ok"
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "1")
        failed = client.submit_and_wait(body(N + 1)).result
        assert failed["status"] == "failed" and failed["attempts"] == 2
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=30")
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "1")
        timed = client.submit_and_wait(body(N + 2)).result
        assert timed["status"] == "timeout"
        monkeypatch.delenv("REPRO_FAULTS")
        monkeypatch.delenv("REPRO_RUN_TIMEOUT")
        assert client.submit_and_wait(body(N + 3)).run_status == "ok"
        # The first worker ran the failures; the watchdog killed it in
        # the hang, and its replacement ran the last miss.
        assert len(started_workers) == 2


class TestPerRunCompletion:
    def test_a_job_finishes_when_its_run_does(self, daemon, client_for):
        handle = daemon(engine_jobs=2)
        client = client_for(handle.port)
        handle.pause()
        short = client.submit(body(500)).body["job_id"]
        long = client.submit(body(40_000)).body["job_id"]
        handle.resume()
        done = client.wait(short, timeout=120)
        assert done.body["result"]["status"] == "ok"
        # Both ran in one batch; the long one is still going.
        assert client.job(long).body["state"] == "running"
        assert client.wait(long, timeout=300).body["result"]["status"] \
            == "ok"


class TestHandleStop:
    def test_stop_keeps_its_timeout_and_the_thread_closes_the_pool(
            self, daemon, client_for, started_workers):
        handle = daemon()
        client = client_for(handle.port)
        job = client.submit(body(40_000)).body["job_id"]
        deadline = time.monotonic() + 60
        while client.job(job).body["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        begin = time.monotonic()
        handle.stop(timeout=0.1)
        assert time.monotonic() - begin < 0.5
        # The run goes on; the thread stops its worker once it returns.
        assert handle.thread.is_alive()
        handle.thread.join(timeout=120)
        assert not handle.thread.is_alive()
        assert wait_until_gone([started_workers[0].process.pid], 5.0) == []


class TestWorkerSockets:
    def test_a_closed_connection_reads_eof_while_a_worker_lives(
            self, daemon, client_for, started_workers):
        handle = daemon()
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            # The worker forks while this connection is open.
            reply = client_for(handle.port).submit_and_wait(body())
            assert reply.run_status == "ok"
            assert started_workers[0].process.is_alive()
            sock.sendall(b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 99999999\r\n\r\n")
            sock.settimeout(3.0)
            reply = b""
            while True:
                chunk = sock.recv(65536)      # times out without an EOF
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 413")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_daemon(log: Path, port: int, jobs: int):
    """``repro serve`` as a subprocess, its stderr in *log*; returns it
    and its bound port (None when it did not start).

    Its workers inherit stdout and stderr, so a reader waiting for EOF
    on either would wait for them too: stderr goes to a file.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    with open(log, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--jobs", str(jobs), "--no-doctor", "--log-level", "warning"],
            env=env, stdout=subprocess.PIPE, stderr=stderr)
    line = proc.stdout.readline().decode()
    if "listening on" not in line:
        return proc, None
    return proc, int(line.split("://", 1)[1].split()[0].rsplit(":", 1)[1])


def reap(proc, log: Path) -> str:
    """Stop *proc* if it still runs; return its stderr."""
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    proc.stdout.close()
    return log.read_text()


def wait_for_children(pid: int, count: int, deadline_s: float = 60.0):
    deadline = time.monotonic() + deadline_s
    while (len(live_children(pid)) < count
           and time.monotonic() < deadline):
        time.sleep(0.05)
    children = live_children(pid)
    assert len(children) == count
    return children


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestDaemonExit:
    def test_sigterm_stops_the_workers_within_two_seconds(self, client_for,
                                                          tmp_path):
        log = tmp_path / "daemon.log"
        proc, port = spawn_daemon(log, 0, jobs=1)
        try:
            assert port is not None
            assert client_for(port).submit_and_wait(body()).run_status \
                == "ok"
            workers = live_children(proc.pid)
            assert len(workers) == 1
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=2)
        finally:
            stderr = reap(proc, log)
        assert "Traceback" not in stderr, stderr
        assert wait_until_gone(workers, 1.0) == []

    def test_sigterm_ends_a_worker_and_the_next_miss_restarts_it(
            self, client_for, tmp_path):
        # The worker does not keep the event loop's SIGTERM handler.
        log = tmp_path / "daemon.log"
        proc, port = spawn_daemon(log, 0, jobs=1)
        try:
            assert port is not None
            client = client_for(port)
            assert client.submit_and_wait(body()).run_status == "ok"
            (worker,) = live_children(proc.pid)
            os.kill(worker, signal.SIGTERM)
            assert wait_until_gone([worker], 2.0) == []
            assert client.submit_and_wait(body(N + 1)).run_status == "ok"
            assert client.metrics().body["engine"]["worker_restarts"] == 1
        finally:
            stderr = reap(proc, log)
        assert "Traceback" not in stderr, stderr

    def test_sigkill_idle_workers_exit_at_once(self, client_for, tmp_path):
        log = tmp_path / "daemon.log"
        proc, port = spawn_daemon(log, 0, jobs=2)
        try:
            assert port is not None
            client = client_for(port)
            # One batch of two runs starts both workers.
            reply = client.submit_batch([body(N), body(N + 1)])
            for result in reply.body["results"]:
                done = client.wait(result["job_id"], timeout=120)
                assert done.body["result"]["status"] == "ok"
            workers = live_children(proc.pid)
            assert len(workers) == 2
            proc.kill()
        finally:
            reap(proc, log)
        assert wait_until_gone(workers, 2.0) == []

    def test_sigkilled_daemon_restarts_on_its_port(self, client_for, tmp_path):
        port = free_port()
        log = tmp_path / "killed.log"
        proc, bound = spawn_daemon(log, port, jobs=2)
        try:
            assert bound == port
            reply = client_for(port).submit_batch(
                [body(41_000, "lbm"), body(41_000, "milc")])
            assert [r["http_status"] for r in reply.body["results"]] \
                == [202, 202]
            workers = wait_for_children(proc.pid, 2)
            proc.kill()
        finally:
            reap(proc, log)
        assert all(Path(f"/proc/{pid}").exists() for pid in workers)
        # The killed daemon's workers still run; the port is free.
        log = tmp_path / "restarted.log"
        restarted, bound = spawn_daemon(log, port, jobs=2)
        try:
            assert bound == port, reap(restarted, log)
            assert client_for(port).healthz().ok
            restarted.send_signal(signal.SIGTERM)
            restarted.wait(timeout=10)
        finally:
            reap(restarted, log)
        assert wait_until_gone(workers) == []
