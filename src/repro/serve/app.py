"""The ``repro serve`` daemon: simulation-as-a-service over HTTP/JSON.

Pure-stdlib asyncio server.  The admission layer IS the content-addressed
disk cache: a submission whose fingerprint already resolves on disk is
answered inline with the stored payload (microseconds, byte-identical to
what any other reader of that cache entry would serialize); misses are
admitted into a bounded queue — duplicates coalescing onto the in-flight
job — and executed by the supervised batch engine on a dedicated
executor thread, inheriting every reliability property the engine
already has (watchdog timeouts, retries, worker restarts,
per-completion disk checkpointing).  That last property makes serving
crash-safe: a daemon SIGKILLed mid-queue loses its queue but none of its
completed work, and every finished request resubmitted to a fresh daemon
is a cache hit.

Endpoints::

    GET  /healthz                 liveness probe (+ draining, member_id,
                                  engine_jobs, client_quota)
    GET  /cluster                 membership registry view
    GET  /metrics                 queue depth, hit rate, p50/p99, workers
    POST /submit                  one run request (see serve.protocol)
    POST /batch                   {"requests": [...]} bulk admission
    GET  /jobs/<id>?wait=S        job status; long-polls up to S seconds
    GET  /jobs/<id>/progress      mid-run progress from the snapshot
                                  store; ?stream=1 for chunked JSON lines,
                                  ?detail=1 to include IPC-so-far

Backpressure contract: a full queue or an exhausted per-client quota
answers ``429`` with a ``Retry-After`` header priced from the current
backlog and the observed per-miss service time; the body's ``error``
field distinguishes ``queue_full`` from ``quota_exceeded``.  A daemon
that has begun shutting down answers ``503 draining`` instead, so
cluster clients fail over immediately rather than queueing against a
dying replica.

With ``cluster=True`` (``repro serve --cluster``) the daemon also
publishes a heartbeat-renewed member record into the shared cache dir
(see ``repro.serve.cluster``) so peers and clients can discover it;
``/cluster`` serves the registry view.  Both sides of every connection
cross the ``repro.serve.netfaults`` shim (sites ``daemon.accept`` /
``daemon.respond``) so ``REPRO_NET_FAULTS`` can deterministically
wreck the transport plane in chaos tests.

Env knobs (validated like every other ``REPRO_*`` knob):
``REPRO_SERVE_HOST``, ``REPRO_SERVE_PORT``, ``REPRO_QUEUE_MAX``,
``REPRO_CLIENT_QUOTA``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.sim import cache as disk_cache
from repro.sim import runner, snapshot
from repro.sim.cache import metrics_to_dict
from repro.sim.config import env_int, env_str
from repro.serve import cluster as cluster_mod
from repro.serve import netfaults, protocol
from repro.serve.queue import (
    ADMIT_COALESCED,
    ADMIT_QUEUE_FULL,
    AdmissionQueue,
    Job,
)
from repro.serve.quotas import ClientQuotas

LOG = logging.getLogger("repro.serve")

DEFAULT_PORT = 8787
DEFAULT_QUEUE_MAX = 256
DEFAULT_CLIENT_QUOTA = 64

#: Submission bodies larger than this are rejected with 413.
MAX_BODY_BYTES = 1 << 20
#: Long-poll ceiling per /jobs request (clients re-poll past this).
MAX_WAIT_S = 60.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


def serve_host() -> str:
    return env_str("REPRO_SERVE_HOST", "127.0.0.1")


def serve_port() -> int:
    """TCP port (``REPRO_SERVE_PORT``); 0 binds an ephemeral port."""
    return env_int("REPRO_SERVE_PORT", DEFAULT_PORT, minimum=0)


def queue_max() -> int:
    """Bounded admission-queue depth (``REPRO_QUEUE_MAX``)."""
    return env_int("REPRO_QUEUE_MAX", DEFAULT_QUEUE_MAX, minimum=1)


def client_quota() -> int:
    """In-flight jobs per client (``REPRO_CLIENT_QUOTA``; 0 = unlimited)."""
    return env_int("REPRO_CLIENT_QUOTA", DEFAULT_CLIENT_QUOTA, minimum=0)


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


class ServeApp:
    """One daemon instance: HTTP frontend + dispatcher + engine thread."""

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None,
                 queue_depth: Optional[int] = None,
                 quota: Optional[int] = None,
                 engine_jobs: Optional[int] = None,
                 batch_linger_s: float = 0.05,
                 heal_on_start: bool = True,
                 cluster: bool = False):
        self.host = host if host is not None else serve_host()
        self.port = port if port is not None else serve_port()
        self.heal_on_start = heal_on_start
        self.doctor_report = None     # DoctorReport from startup healing
        self.queue = AdmissionQueue(
            queue_depth if queue_depth is not None else queue_max())
        self.quotas = ClientQuotas(
            quota if quota is not None else client_quota())
        self.engine_jobs = engine_jobs
        self.cluster_enabled = cluster
        self.member: Optional[cluster_mod.MemberRecord] = None
        self._heartbeat: Optional[asyncio.Task] = None
        self.batch_linger_s = max(0.0, batch_linger_s)
        self.started_at = time.monotonic()
        self.busy_s = 0.0            # executor time spent in run_batch
        self._paused = False
        self._closing = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._closed: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._engine_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine")
        self._handlers: set = set()
        #: Writers of kept-alive connections waiting for their next
        #: request line; a drain closes them.
        self._idle: set = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        # Heal before binding: a daemon restarted onto a damaged cache
        # (torn entries from its own SIGKILL, stale member records, a
        # diverged store) must not admit traffic until the durable state is
        # trustworthy again — a corrupt entry served as a "hit" is the
        # one failure mode this layer can never have.
        if self.heal_on_start:
            from repro.sim import doctor

            report = doctor.diagnose(repair=True)
            self.doctor_report = report
            LOG.info("startup heal: %s", report.summary())
            if not report.healthy:
                for finding in report.findings:
                    if not finding.repaired:
                        LOG.warning("unrepaired: %s", finding.describe())
        self._loop = asyncio.get_event_loop()
        self._wake = asyncio.Event()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        if self.cluster_enabled:
            # Register only after the real (possibly ephemeral) port is
            # known; the record renews from a loop task so a wedged or
            # killed daemon goes stale and gets reaped by its peers.
            self.member = cluster_mod.register(self.host, self.port)
            self._heartbeat = self._loop.create_task(
                self._heartbeat_loop())
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(signum, self.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without signal support

    def request_shutdown(self) -> None:
        """Thread-unsafe shutdown trigger; must run on the loop thread."""
        self._closing = True
        if self._wake is not None:
            self._wake.set()
        if self._closed is not None:
            self._closed.set()

    async def _heartbeat_loop(self) -> None:
        ttl = cluster_mod.member_ttl()
        while not self._closing:
            await asyncio.sleep(max(0.05, ttl / 3.0))
            if self._closing:
                return
            try:
                cluster_mod.heartbeat(self.member)
                cluster_mod.reap_stale()
            except OSError as exc:
                # A failed renewal (cache dir wrecked, injected fault)
                # must not kill the daemon: it keeps serving, and the
                # record simply goes stale until a renewal succeeds.
                LOG.warning("member heartbeat failed: %s", exc)

    async def wait_closed(self) -> None:
        await self._closed.wait()
        # Leave the cluster first so clients stop routing new work
        # here while we drain.
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            try:
                await self._heartbeat
            except (asyncio.CancelledError, Exception):
                pass
        if self.member is not None:
            cluster_mod.deregister(self.member)
        # Fail whatever is still queued *before* tearing the server down
        # so no long-poller can hang (or, on Pythons where
        # ``Server.wait_closed`` waits for handlers, deadlock teardown).
        # An in-flight engine batch keeps checkpointing to the disk
        # cache, so its work is not lost — it is simply re-served as a
        # hit by the next daemon.
        for job in list(self.queue.pending):
            self._finish_job(job, {
                "status": "failed", "source": "shutdown", "attempts": 0,
                "metrics": None,
                "failure": {"kind": "shutdown", "exc_type": "Shutdown",
                            "message": "daemon shut down before this "
                                       "job was scheduled"}})
        self.queue.pending.clear()
        if self._server is not None:
            self._server.close()
            # Kept-alive connections idle between requests would hold
            # the drain (and, where ``Server.wait_closed`` waits for
            # every connection, block it): close them.  A request in
            # flight finishes, and its response says Connection: close.
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
        # Grace period: let woken long-pollers flush their terminal
        # responses before the loop is torn down under them.
        deadline = time.monotonic() + 5.0
        while self._handlers and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        self._engine_pool.shutdown(wait=False)

    def run(self) -> int:
        """Foreground entrypoint for ``repro serve`` (blocks until
        SIGINT/SIGTERM)."""
        async def _main() -> None:
            await self.start()
            print(f"repro-serve listening on "
                  f"http://{self.host}:{self.port} "
                  f"(queue={self.queue.max_depth}, "
                  f"quota={self.quotas.limit or 'unlimited'})",
                  flush=True)
            await self.wait_closed()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass
        return 0

    # -- test hooks (thread-safe) --------------------------------------

    def pause_dispatch(self) -> None:
        """Stop claiming new batches (queued jobs stay queued)."""
        self._call_on_loop(self._set_paused, True)

    def resume_dispatch(self) -> None:
        self._call_on_loop(self._set_paused, False)

    def _set_paused(self, value: bool) -> None:
        self._paused = value
        if not value and self._wake is not None:
            self._wake.set()

    def _call_on_loop(self, fn, *args) -> None:
        if self._loop is None or self._loop.is_closed():
            fn(*args)
            return
        done = threading.Event()

        def _apply() -> None:
            fn(*args)
            done.set()

        try:
            self._loop.call_soon_threadsafe(_apply)
        except RuntimeError:       # loop closed between check and call
            fn(*args)
            return
        done.wait(timeout=10)

    # -- dispatcher ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while not self._closing:
            await self._wake.wait()
            self._wake.clear()
            if self.batch_linger_s:
                # Let a burst accumulate so it becomes one engine batch.
                await asyncio.sleep(self.batch_linger_s)
            while (self.queue.pending and not self._paused
                   and not self._closing):
                jobs = self.queue.drain()
                begin = time.monotonic()
                outcome = await self._loop.run_in_executor(
                    self._engine_pool, self._run_jobs,
                    [job.request for job in jobs])
                self.busy_s += time.monotonic() - begin
                self._apply_batch(jobs, outcome)

    def _run_jobs(self, requests: List) -> object:
        """Engine-thread entry: run one claimed batch non-strictly."""
        try:
            return runner.run_batch(requests, jobs=self.engine_jobs,
                                    strict=False, fail_fast=False)
        except Exception as exc:       # engine-level failure, not per-run
            return exc

    def _apply_batch(self, jobs: List[Job], outcome: object) -> None:
        if isinstance(outcome, Exception):
            failure = {"kind": "engine", "exc_type": type(outcome).__name__,
                       "message": str(outcome)}
            for job in jobs:
                self._finish_job(job, {
                    "status": "failed", "source": "engine", "attempts": 0,
                    "metrics": None, "failure": failure})
            return
        for job, run in zip(jobs, outcome.outcomes):
            result = {"status": run.status, "source": run.source,
                      "attempts": run.attempts, "metrics": None,
                      "failure": None}
            if run.ok:
                # Prefer the raw on-disk payload the engine just
                # checkpointed: the served bytes are then identical to
                # any other reader of the same cache entry.
                payload = disk_cache.load_payload(job.key, job.digest)
                if payload is None:
                    payload = metrics_to_dict(run.metrics)
                result["metrics"] = payload
            elif run.failure is not None:
                result["failure"] = run.failure.to_dict()
            self._finish_job(job, result)

    def _finish_job(self, job: Job, result: dict) -> None:
        self.queue.finish(job, result)
        for client in job.clients:
            self.quotas.release(client)
        job.clients.clear()
        if LOG.isEnabledFor(logging.INFO):
            LOG.info("%s", json.dumps(
                {"event": "job_done", "job_id": job.job_id,
                 "status": result["status"],
                 "attempts": result["attempts"],
                 "submissions": job.submissions,
                 "service_s": round(job.finished_at - job.submitted_at,
                                    6)},
                sort_keys=True))

    # -- admission -----------------------------------------------------

    def _admit_one(self, data, client: str) -> Tuple[int, dict, dict]:
        """Admit one submission object; returns (status, body, headers)."""
        begin = time.monotonic()
        if self._closing:
            # Draining: unlike 429 (try me again shortly) this tells a
            # cluster client to take the work to another replica now.
            self.queue.counters["rejected_draining"] += 1
            return 503, {"error": "draining",
                         "detail": "daemon is shutting down; resubmit "
                                   "to another replica"}, \
                {"Retry-After": "1"}
        try:
            request = protocol.parse_run_request(data)
        except protocol.ProtocolError as exc:
            return exc.status, {"error": "bad_request",
                                "detail": str(exc)}, {}
        self.queue.counters["submitted"] += 1
        key = request.key()
        digest = disk_cache.key_digest(key)
        job_id = digest[:16]

        payload = disk_cache.load_payload(key, digest)
        if payload is not None:
            self.queue.record_hit(time.monotonic() - begin)
            return 200, {"status": "ok", "source": "cache",
                         "job_id": job_id, "metrics": payload}, {}

        existing = self.queue.get(job_id)
        coalescing = existing is not None and not existing.terminal
        holds_slot = coalescing and client in existing.clients
        if not holds_slot and not self.quotas.try_acquire(client):
            self.queue.counters["rejected_quota"] += 1
            return 429, {"error": "quota_exceeded",
                         "detail": f"client {client!r} already has "
                                   f"{self.quotas.limit} job(s) in "
                                   f"flight"}, \
                {"Retry-After": str(self.queue.retry_after_s())}

        verdict, job = self.queue.admit(job_id, digest, request, key)
        if verdict == ADMIT_QUEUE_FULL:
            if not holds_slot:
                self.quotas.release(client)
            return 429, {"error": "queue_full",
                         "detail": f"admission queue is at its "
                                   f"{self.queue.max_depth}-entry "
                                   f"bound"}, \
                {"Retry-After": str(self.queue.retry_after_s())}
        job.clients.add(client)
        self._wake.set()
        body = {"status": "queued", "job_id": job.job_id,
                "coalesced": verdict == ADMIT_COALESCED,
                "position": self.queue.depth()}
        return 202, body, {}

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._handlers.discard(task)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        if netfaults.accept("daemon.accept") != "ok":
            # Injected refuse/reset at the accept seam: sever before
            # reading a byte — the client observes a dead dial.
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "unknown"
        try:
            # A request already in flight when shutdown begins is still
            # served (its job was force-finished by ``wait_closed``, so
            # the response is immediate); only keep-alive *reuse* stops.
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, target, headers, body = request
                client = headers.get("x-client-id", peer_host)
                begin = time.monotonic()
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                status = await self._route(
                    method, target, headers, body, client, writer)
                if LOG.isEnabledFor(logging.INFO):
                    LOG.info("%s", json.dumps(
                        {"event": "request", "method": method,
                         "target": target, "status": abs(status),
                         "client": client,
                         "duration_s": round(time.monotonic() - begin,
                                             6)},
                        sort_keys=True))
                if not keep_alive or status < 0 or self._closing:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> Optional[tuple]:
        self._idle.add(writer)         # idle until a request line arrives
        try:
            line = await reader.readline()
        except (ConnectionResetError, asyncio.LimitOverrunError):
            return None
        finally:
            self._idle.discard(writer)
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # Routed to 413, which closes the connection: the unread
            # body would otherwise be parsed as the next request.
            return method, target, headers, None
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _route(self, method: str, target: str, headers: dict,
                     body: Optional[bytes], client: str,
                     writer: asyncio.StreamWriter) -> int:
        path = urlsplit(target).path
        query = {k: v[-1] for k, v in
                 parse_qs(urlsplit(target).query).items()}
        if body is None:
            return await self._respond(writer, 413,
                                       {"error": "payload_too_large"})
        if path == "/healthz" and method == "GET":
            return await self._respond(writer, 200, {
                "ok": True, "queue_depth": self.queue.depth(),
                "draining": self._closing,
                "engine_jobs": self.engine_jobs or runner.job_count(),
                "client_quota": self.quotas.limit,
                "member_id": self.member.member_id
                if self.member is not None else None,
                "uptime_s": round(time.monotonic() - self.started_at, 3)})
        if path == "/cluster" and method == "GET":
            return await self._respond(writer, 200, self.cluster_info())
        if path == "/metrics" and method == "GET":
            return await self._respond(writer, 200, self.metrics())
        if path == "/submit" and method == "POST":
            data, error = self._parse_json(body)
            if error:
                return await self._respond(writer, 400, error)
            status, payload, extra = self._admit_one(data, client)
            return await self._respond(writer, status, payload, extra)
        if path == "/batch" and method == "POST":
            data, error = self._parse_json(body)
            if error:
                return await self._respond(writer, 400, error)
            try:
                batch = protocol.parse_submission(data)
            except protocol.ProtocolError as exc:
                return await self._respond(writer, 400, {
                    "error": "bad_request", "detail": str(exc)})
            results = []
            for item in batch["requests"]:
                status, payload, extra = self._admit_one(item, client)
                entry = dict(payload)
                entry["http_status"] = status
                if "Retry-After" in extra:
                    entry["retry_after_s"] = int(extra["Retry-After"])
                results.append(entry)
            return await self._respond(writer, 200, {"results": results})
        if path.startswith("/jobs/") and method == "GET":
            return await self._route_jobs(path, query, writer)
        if path in ("/healthz", "/cluster", "/metrics", "/submit",
                    "/batch"):
            return await self._respond(writer, 405, {
                "error": "method_not_allowed"})
        return await self._respond(writer, 404, {"error": "not_found"})

    async def _route_jobs(self, path: str, query: dict,
                          writer: asyncio.StreamWriter) -> int:
        parts = [p for p in path.split("/") if p]
        job = self.queue.get(parts[1]) if len(parts) >= 2 else None
        if job is None:
            return await self._respond(writer, 404, {
                "error": "unknown_job",
                "detail": "no such job this daemon lifetime (completed "
                          "work is re-served from the cache on "
                          "resubmit)"})
        if len(parts) == 2:
            wait_s = self._float_param(query, "wait", 0.0)
            if wait_s > 0 and not job.terminal:
                try:
                    await asyncio.wait_for(job.done.wait(),
                                           min(wait_s, MAX_WAIT_S))
                except asyncio.TimeoutError:
                    pass
            return await self._respond(writer, 200, job.describe())
        if len(parts) == 3 and parts[2] == "progress":
            detail = query.get("detail") in ("1", "true", "yes")
            if query.get("stream") in ("1", "true", "yes"):
                interval = max(0.05, self._float_param(
                    query, "interval", 0.25))
                return await self._stream_progress(
                    writer, job, interval, detail)
            return await self._respond(
                writer, 200, self._progress_probe(job, detail))
        return await self._respond(writer, 404, {"error": "not_found"})

    @staticmethod
    def _float_param(query: dict, name: str, default: float) -> float:
        try:
            return float(query.get(name, default))
        except (TypeError, ValueError):
            return default

    @staticmethod
    def _parse_json(body: bytes) -> Tuple[Optional[dict], Optional[dict]]:
        if not body:
            return None, {"error": "bad_request",
                          "detail": "empty body (expected JSON)"}
        try:
            return json.loads(body.decode()), None
        except (ValueError, UnicodeDecodeError) as exc:
            return None, {"error": "bad_request",
                          "detail": f"body is not valid JSON: {exc}"}

    # -- progress ------------------------------------------------------

    def _progress_probe(self, job: Job, detail: bool = False) -> dict:
        """One progress observation from the mid-run snapshot store."""
        total = job.request.n_accesses or 0
        info = {"job_id": job.job_id, "state": job.state,
                "total_accesses": total}
        if job.terminal:
            info["result"] = job.result
            info["accesses_done"] = total if (
                job.result or {}).get("status") == "ok" else None
            return info
        header = snapshot.peek(job.key)
        if header is None:
            info["accesses_done"] = 0
            return info
        done = header["access_index"] + 1
        info["accesses_done"] = done
        if total:
            info["fraction"] = round(done / total, 4)
        if detail:
            loaded = snapshot.load(job.key)
            if loaded is not None:
                core = loaded[1]
                info["instructions"] = core.instructions
                info["ipc_so_far"] = round(
                    core.instructions / core.fetch, 6) if core.fetch else None
        return info

    async def _stream_progress(self, writer: asyncio.StreamWriter,
                               job: Job, interval: float,
                               detail: bool) -> int:
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: application/json\r\n"
                f"Transfer-Encoding: chunked\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head)
        await writer.drain()

        async def _emit(payload: dict) -> None:
            chunk = _json_bytes(payload)
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1")
                         + chunk + b"\r\n")
            await writer.drain()

        try:
            while True:
                probe = self._progress_probe(job, detail)
                await _emit(probe)
                if job.terminal or self._closing:
                    break
                try:
                    await asyncio.wait_for(job.done.wait(), interval)
                except asyncio.TimeoutError:
                    pass
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        return -200   # negative: the connection must close (chunked EOF)

    # -- observability -------------------------------------------------

    def cluster_info(self) -> dict:
        """Registry view served on ``/cluster`` (stale peers included,
        flagged, so operators can see who stopped renewing)."""
        return {
            "enabled": self.cluster_enabled,
            "member_id": self.member.member_id
            if self.member is not None else None,
            "registry": str(cluster_mod.members_dir()),
            "members": [record.to_dict() for record in
                        cluster_mod.load_members(include_stale=True)],
        }

    def metrics(self) -> dict:
        uptime = max(1e-9, time.monotonic() - self.started_at)
        data = self.queue.snapshot()
        data.update({
            "uptime_s": round(uptime, 3),
            "worker_utilization": round(min(1.0, self.busy_s / uptime), 4),
            "engine_busy_s": round(self.busy_s, 3),
            "clients_in_flight": self.quotas.total_in_flight(),
            "client_quota": self.quotas.limit,
            "engine": runner.engine_stats().to_dict(),
        })
        return data

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict,
                       extra_headers: Optional[dict] = None) -> int:
        """Write one response; a negative return closes the connection.

        The daemon ends the connection after a 413 (its body was left
        unread) and while draining, and says so with ``Connection:
        close``, so a keep-alive client does not pool the socket.
        """
        body, action = netfaults.respond("daemon.respond",
                                         _json_bytes(payload))
        closing = status == 413 or self._closing
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
        if closing:
            lines.append("Connection: close")
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if action != "ok":
            return await self._respond_faulted(writer, status, head,
                                               body, action)
        writer.write(head + body)
        await writer.drain()
        return -status if closing else status

    async def _respond_faulted(self, writer: asyncio.StreamWriter,
                               status: int, head: bytes, body: bytes,
                               action: str) -> int:
        """Apply an injected response-side fault (netfaults shim).

        Every action returns a negative status so the keep-alive loop
        closes the connection: a blackholed, reset, half-sent or
        duplicated response leaves the stream unusable by definition.
        """
        if action == "reset":
            transport = writer.transport
            if transport is not None:
                transport.abort()          # RST, not FIN
            return -status
        if action == "drop":
            return -status                 # write nothing; FIN on close
        if action == "half-close":
            writer.write(head + body[:len(body) // 2])
            await writer.drain()
            return -status
        writer.write(head + body + head + body)     # action == "dup"
        await writer.drain()
        return -status


def start_in_thread(**kwargs) -> "ServeHandle":
    """Boot a daemon on a background thread (tests and benchmarks).

    Binds an ephemeral port unless ``port`` is given; returns a handle
    exposing the bound ``port``, the ``app``, and ``stop()``.
    """
    kwargs.setdefault("port", 0)
    app = ServeApp(**kwargs)
    started = threading.Event()
    failure: List[BaseException] = []

    def _main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(app.start())
        except BaseException as exc:           # surface bind errors
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_until_complete(app.wait_closed())
        finally:
            try:
                remaining = asyncio.all_tasks(loop)
                for task in remaining:
                    task.cancel()
                if remaining:
                    loop.run_until_complete(asyncio.gather(
                        *remaining, return_exceptions=True))
            finally:
                loop.close()

    thread = threading.Thread(target=_main, daemon=True,
                              name="repro-serve")
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("serve daemon did not start within 30s")
    if failure:
        raise failure[0]
    return ServeHandle(app, thread)


class ServeHandle:
    """Controls a daemon started by :func:`start_in_thread`."""

    def __init__(self, app: ServeApp, thread: threading.Thread):
        self.app = app
        self.thread = thread

    @property
    def port(self) -> int:
        return self.app.port

    @property
    def host(self) -> str:
        return self.app.host

    def pause(self) -> None:
        self.app.pause_dispatch()

    def resume(self) -> None:
        self.app.resume_dispatch()

    def stop(self, timeout: float = 30.0) -> None:
        self.app._call_on_loop(self.app.request_shutdown)
        self.thread.join(timeout=timeout)
