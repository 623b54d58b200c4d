"""Multi-daemon clustering over the shared content-addressed cache.

The HA design leans on what the repo already has instead of new
consensus machinery — exactly the Victima move of exploiting existing
underutilized capacity.  Every replica writes finished runs to the
*same* content-addressed disk cache, and every entry is bitwise-
reproducible from its key, so **any replica can serve any finished
result identically**.  What is left to coordinate is tiny:

* **Membership** — each daemon publishes a heartbeat-renewed member
  record under ``<cache>/cluster/members/<id>.json``, written with the
  same crash-consistent temp-fsync-rename publish as every other
  durable file (``iofaults.publish_bytes``, layer ``member`` — so the
  registry is wreckable by ``REPRO_IO_FAULTS`` and healable by
  ``repro doctor``).  Like campaign worker leases these are TTL
  records (:mod:`repro.sim.records`) judged against ``REPRO_MEMBER_TTL``;
  any replica (or the doctor) reaps records whose owner stopped renewing.
* **Placement** — :class:`ClusterClient` ranks replicas per run key
  with rendezvous (highest-random-weight) hashing, so every client
  sends the same key to the same replica while it is alive — in-flight
  duplicate submissions still coalesce server-side — and keys
  redistribute minimally when membership changes.
* **Failover** — each replica gets its own :class:`ServeClient`
  (transport retries + circuit breaker).  When the preferred replica
  is dead or draining the client walks the rendezvous order; work the
  dead replica already published is re-served from the shared cache by
  whichever replica answers, so a mid-run crash costs at most a re-run
  of the unfinished jobs, never a wrong or lost result.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.serve import protocol
from repro.serve.client import (
    Response,
    RetryPolicy,
    ServeClient,
    ServeClientError,
)
from repro.sim import cache as disk_cache
from repro.sim import iofaults, records
from repro.sim.config import env_float

#: Heartbeat-renewed member records older than this are stale.
DEFAULT_MEMBER_TTL_S = 15.0


def member_ttl() -> float:
    """Member-record staleness horizon (``REPRO_MEMBER_TTL`` seconds)."""
    return env_float("REPRO_MEMBER_TTL", DEFAULT_MEMBER_TTL_S,
                     minimum=0.1)


def members_dir() -> Path:
    """The membership registry lives inside the shared cache dir."""
    return disk_cache.cache_dir() / "cluster" / "members"


def member_id_for(host: str, port: int) -> str:
    """Filesystem-safe member id; one record per bound address, so a
    daemon restarted onto the same port supersedes its old self."""
    safe_host = "".join(ch if ch.isalnum() or ch in "._-" else "-"
                        for ch in host)
    return f"{safe_host}-{port}"


@dataclass
class MemberRecord:
    """One replica's registry entry (age/stale computed at load time)."""

    member_id: str
    host: str
    port: int
    pid: int = 0
    started_at: float = 0.0          # wall clock, informational
    age_s: float = 0.0               # mtime age when loaded
    stale: bool = False

    @property
    def path(self) -> Path:
        return members_dir() / f"{self.member_id}.json"

    def to_payload(self) -> dict:
        return {"member_id": self.member_id, "host": self.host,
                "port": self.port, "pid": self.pid,
                "started_at": self.started_at}

    def to_dict(self) -> dict:
        info = self.to_payload()
        info.update({"age_s": round(self.age_s, 3), "stale": self.stale})
        return info


def register(host: str, port: int,
             pid: Optional[int] = None) -> MemberRecord:
    """Publish (or renew) this daemon's member record."""
    record = MemberRecord(
        member_id=member_id_for(host, port), host=host, port=port,
        pid=pid if pid is not None else os.getpid(),
        started_at=time.time())
    heartbeat(record)
    return record


def heartbeat(record: MemberRecord) -> None:
    """Re-publish the record; the fresh mtime is the liveness signal.

    Uses the full crash-consistent publish so a daemon SIGKILLed
    mid-heartbeat leaves the previous valid record (or a sweepable
    temp file), never a torn one.
    """
    data = json.dumps(record.to_payload(), sort_keys=True).encode()
    iofaults.publish_bytes("member", record.path, data)


def deregister(record: MemberRecord) -> None:
    """Remove the record on clean shutdown (crash leaves it to reap)."""
    try:
        record.path.unlink()
    except OSError:
        pass


def parse_record(raw: bytes) -> MemberRecord:
    """The one parser of a member record; raises ValueError, KeyError or
    TypeError on bytes no reader may trust (clients skip such a record,
    ``repro doctor`` reaps it as corrupt)."""
    data = json.loads(raw.decode())
    return MemberRecord(
        member_id=str(data["member_id"]), host=str(data["host"]),
        port=int(data["port"]), pid=int(data.get("pid", 0)),
        started_at=float(data.get("started_at", 0.0)))


def member_records(ttl_s: Optional[float] = None) -> records.RecordSet:
    """The registry as TTL records (:mod:`repro.sim.records`)."""
    return records.RecordSet(
        members_dir(), "*.json",
        ttl_s if ttl_s is not None else member_ttl(), parse_record)


def load_members(include_stale: bool = False,
                 ttl_s: Optional[float] = None) -> List[MemberRecord]:
    """All parseable member records, stalest last; corrupt files are
    skipped here and repaired by ``repro doctor``."""
    members = []
    for record in member_records(ttl_s).scan():
        stale = record.status == "stale"
        if record.status == "ok" or (include_stale and stale):
            record.value.age_s, record.value.stale = record.age_s, stale
            members.append(record.value)
    members.sort(key=lambda r: (r.age_s, r.member_id))
    return members


def reap_stale(ttl_s: Optional[float] = None) -> List[str]:
    """Reap records whose owner stopped renewing; returns their ids.

    Safe from any process: a record that outlived its TTL belongs to a
    daemon that is gone (or wedged), and a live daemon re-registers on
    its next heartbeat.
    """
    tag = f"reaper.{os.getpid()}"
    return [record.value.member_id
            for record in member_records(ttl_s).scan()
            if record.status == "stale" and records.reap(record.path, tag)]


def cluster_status(ttl_s: Optional[float] = None,
                   probe_timeout: float = 2.0) -> dict:
    """Registry + live health sweep for ``repro cluster status``."""
    members = load_members(include_stale=True, ttl_s=ttl_s)
    entries = []
    alive = 0
    for record in members:
        info = record.to_dict()
        if record.stale:
            info["health"] = "stale"
        else:
            with ServeClient(record.host, record.port,
                             timeout=probe_timeout,
                             policy=RetryPolicy(retries=0,
                                                backoff_s=0.0)) as client:
                try:
                    reply = client.healthz()
                    info["health"] = ("draining"
                                      if reply.body.get("draining")
                                      else "ok")
                    info["queue_depth"] = reply.body.get("queue_depth")
                    alive += info["health"] == "ok"
                except ServeClientError as exc:
                    info["health"] = "unreachable"
                    info["detail"] = str(exc)
        entries.append(info)
    return {"members": entries, "alive": alive,
            "registry": str(members_dir()), "ttl_s": ttl_s
            if ttl_s is not None else member_ttl()}


# ----------------------------------------------------------------------
# Failover-aware client
# ----------------------------------------------------------------------

def rendezvous_rank(digest: str, member_ids: List[str]) -> List[str]:
    """Order *member_ids* for *digest* by highest-random-weight hash.

    Every client computes the same order from the same inputs, so one
    key always lands on one live replica (server-side coalescing keeps
    winning) and a membership change only remaps the keys that scored
    the lost replica first.
    """
    return sorted(
        member_ids,
        key=lambda member: zlib.crc32(f"{digest}:{member}".encode()),
        reverse=True)


class ClusterClient:
    """Submits against a replica set with rendezvous placement and
    cache-deduplicated failover.

    Replicas come from an explicit ``replicas`` list of ``(host,
    port)`` pairs or, by default, from the registry in the shared
    cache dir (refreshed between failover sweeps).  Each replica keeps
    its own :class:`ServeClient` so transport retries and the circuit
    breaker are scoped per replica — one dead daemon fails fast while
    the others stay hot.
    """

    def __init__(self, replicas: Optional[List[Tuple[str, int]]] = None,
                 client_id: Optional[str] = None, timeout: float = 60.0,
                 policy: Optional[RetryPolicy] = None,
                 min_slice_s: float = 2.0):
        self.client_id = client_id
        self.timeout = timeout
        self.policy = policy if policy is not None else RetryPolicy()
        self.min_slice_s = min_slice_s
        self.failovers = 0           # observability: replicas walked past
        self._static = replicas is not None
        self._replicas: Dict[str, Tuple[str, int]] = {}
        self._clients: Dict[str, ServeClient] = {}
        if replicas is not None:
            for host, port in replicas:
                self._replicas[member_id_for(host, port)] = (host, port)
        else:
            self.refresh()

    def refresh(self) -> None:
        """Re-read the registry (no-op for a static replica list)."""
        if self._static:
            return
        fresh = {record.member_id: (record.host, record.port)
                 for record in load_members()}
        if fresh:
            self._replicas = fresh
        for member in list(self._clients):
            if member not in self._replicas:
                self._clients.pop(member).close()

    def close(self) -> None:
        """Close every replica client's idle connections."""
        for client in self._clients.values():
            client.close()

    @property
    def members(self) -> List[str]:
        return sorted(self._replicas)

    def _client(self, member: str) -> ServeClient:
        if member not in self._clients:
            host, port = self._replicas[member]
            self._clients[member] = ServeClient(
                host, port, client_id=self.client_id,
                timeout=self.timeout, policy=self.policy)
        return self._clients[member]

    def ranked(self, digest: str) -> List[str]:
        return rendezvous_rank(digest, self.members)

    def healthy_members(self, probe_timeout: float = 2.0) -> List[str]:
        """The members answering ``/healthz`` and not draining."""
        healthy = []
        for member in self.members:
            host, port = self._replicas[member]
            with ServeClient(host, port, timeout=probe_timeout,
                             policy=RetryPolicy(retries=0,
                                                backoff_s=0.0)) as probe:
                try:
                    reply = probe.healthz()
                except ServeClientError:
                    continue
            if reply.ok and not reply.body.get("draining"):
                healthy.append(member)
        return healthy

    def submit_and_wait(self, request: dict,
                        timeout: float = 300.0) -> Response:
        """Submit to the rendezvous-preferred replica; fail over on
        transport death.

        Each replica gets a bounded slice of the deadline; a replica
        that dies mid-wait (circuit open, retries exhausted, garbled
        storm) forfeits its slice and the next-ranked replica gets the
        same request.  Because results are content-addressed in the
        shared cache, a resubmission of work the dead replica already
        finished is answered inline as a hit — failover deduplicates
        by construction.  Raises :class:`ServeClientError` only when
        no replica produced a terminal outcome before *timeout*.
        """
        deadline = time.monotonic() + timeout
        digest = protocol.request_digest(request)
        last_error: Optional[Exception] = None
        sweep = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeClientError(
                    f"cluster submit_and_wait: no terminal outcome "
                    f"within {timeout}s "
                    f"(last error: {last_error})") from last_error
            order = self.ranked(digest)
            if not order:
                self.refresh()
                order = self.ranked(digest)
            if not order:
                raise ServeClientError(
                    f"no replicas in the cluster registry at "
                    f"{members_dir()}")
            for position, member in enumerate(order):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                slice_s = min(remaining,
                              max(self.min_slice_s,
                                  remaining / len(order)))
                try:
                    return self._client(member).submit_and_wait(
                        request, timeout=slice_s)
                except ServeClientError as exc:
                    last_error = exc
                    if position + 1 < len(order):
                        self.failovers += 1
                    continue
            sweep += 1
            self.refresh()
            pause = self.policy.delay_s(min(sweep, 6), "cluster")
            time.sleep(min(pause, max(0.0,
                                      deadline - time.monotonic())))
