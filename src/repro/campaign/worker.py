"""Sharded worker-pull execution: N processes or hosts, one sweep.

A pull worker repeatedly claims one missing cell, simulates it
in-process through the supervised engine, publishes the result (disk
cache + store), and moves on.  Coordination is nothing but the shared
content-addressed cache directory:

- **Claims** are lease files under
  ``<cache>/campaigns/<campaign_id>/leases/<cell digest>.lease``,
  created with ``O_CREAT|O_EXCL`` — a POSIX-atomic test-and-set, so two
  workers can never both win a cell, across processes *and* across
  hosts sharing the directory.
- **Stale leases** (holder SIGKILLed mid-cell) are reclaimed once older
  than the TTL (``REPRO_LEASE_TTL``, default 300s — set it above your
  longest cell).  Reclamation follows :mod:`repro.sim.records`: the
  lease is renamed to a unique takeover name first (``os.replace`` is
  atomic), so concurrent reclaimers resolve to exactly one winner.
- **Results** land in the content-addressed run cache keyed by the cell
  fingerprint, so even the worst race — a lease wrongly reclaimed while
  its holder still lives — costs only a duplicate simulation of a
  deterministic run: both writers store bitwise-identical bytes under
  the same digest, and the store records one row per cell.

A worker exits when the grid has no claimable work left: every cell is
either done, leased to a live peer it waited out, or failed under this
worker (failures stay recorded for the next ``run_missing`` to retry).
"""

from __future__ import annotations

import json
import os
import re
import socket
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.sim import cache as disk_cache
from repro.sim import iofaults, records
from repro.sim.config import ConfigurationError, env_float, env_str
from repro.sim.runner import engine_stats, run_batch
from repro.campaign.grid import Campaign, CampaignCell
from repro.campaign.store import CampaignStore

DEFAULT_LEASE_TTL_S = 300.0

#: Worker ids end up in lease filenames; keep them path-safe.
_WORKER_ID_PATTERN = r"[A-Za-z0-9._-]+"


def lease_ttl(override: Optional[float] = None) -> float:
    """Seconds before an unreleased lease is presumed dead
    (``REPRO_LEASE_TTL``; must exceed the longest cell runtime)."""
    if override is not None:
        if override <= 0:
            raise ConfigurationError(
                f"lease TTL must be > 0, got {override!r}")
        return override
    value = env_float("REPRO_LEASE_TTL", DEFAULT_LEASE_TTL_S,
                      minimum=1e-3)
    return value


def worker_id(override: Optional[str] = None) -> str:
    """This worker's identity (``REPRO_WORKER_ID``; default host-pid)."""
    if override is not None and override.strip():
        candidate = override.strip()
        if not re.fullmatch(_WORKER_ID_PATTERN, candidate):
            raise ConfigurationError(
                f"worker id must match {_WORKER_ID_PATTERN!r}, "
                f"got {candidate!r}")
        return candidate
    default = f"{socket.gethostname()}-{os.getpid()}"
    return env_str("REPRO_WORKER_ID", default,
                   pattern=_WORKER_ID_PATTERN)


def lease_root(campaign: Campaign) -> Path:
    """Per-campaign lease directory inside the shared cache dir."""
    return (disk_cache.cache_dir() / "campaigns"
            / campaign.campaign_id / "leases")


def lease_path(campaign: Campaign, cell: CampaignCell) -> Path:
    return lease_root(campaign) / f"{cell.digest}.lease"


def try_claim(path: Path, worker: str) -> bool:
    """Atomically claim one cell; False when someone else holds it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps({"worker": worker, "pid": os.getpid(),
                          "host": socket.gethostname(),
                          "claimed_at": time.time()})
    try:
        iofaults.check("lease.write")
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False
    try:
        os.write(fd, payload.encode())
    finally:
        os.close(fd)
    return True


def release(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def lease_age_s(path: Path) -> Optional[float]:
    """Seconds since the lease was written, or None when absent."""
    return records.age_s(path, "lease.read")


def reclaim_if_stale(path: Path, ttl: float, worker: str) -> bool:
    """Reap a lease whose holder is presumed dead (:func:`records.reap`:
    of concurrent reclaimers exactly one wins); True when this worker
    freed the slot."""
    lease = records.classify(path, ttl, site="lease.read")
    return (lease is not None and lease.status == "stale"
            and records.reap(path, f"{worker}.{os.getpid()}"))


def lease_records(ttl: Optional[float] = None) -> records.RecordSet:
    """Every campaign's leases, as TTL records (``repro doctor``'s view)."""
    return records.RecordSet(disk_cache.cache_dir() / "campaigns",
                             "*/leases/*.lease",
                             ttl if ttl is not None else lease_ttl(),
                             site="lease.read")


def active_leases(campaign: Campaign) -> List[Path]:
    root = lease_root(campaign)
    if not root.is_dir():
        return []
    return sorted(p for p in root.glob("*.lease") if p.is_file())


@dataclass
class WorkerReport:
    """What one pull worker did before running out of claimable work."""

    worker: str
    campaign_id: str
    claimed: int = 0           # leases this worker won
    simulated: int = 0         # cells it actually executed
    synced: int = 0            # claims resolved from the disk cache
    failed: int = 0            # cells that failed under this worker
    reclaimed: int = 0         # stale leases it freed
    store_errors: int = 0      # store writes absorbed (repaired by sync)
    waited_s: float = 0.0      # time spent waiting on peers' leases
    wall_s: float = 0.0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def describe(self) -> str:
        line = (f"worker {self.worker} [{self.campaign_id}]: "
                f"{self.simulated} simulated, {self.synced} synced, "
                f"{self.failed} failed, {self.reclaimed} leases "
                f"reclaimed in {self.wall_s:.2f}s")
        if self.waited_s:
            line += f" ({self.waited_s:.2f}s waiting on peers)"
        if self.store_errors:
            line += (f" [{self.store_errors} store writes failed; "
                     f"run sync/doctor to repair]")
        return line

    def to_dict(self) -> dict:
        return {"worker": self.worker, "campaign_id": self.campaign_id,
                "claimed": self.claimed, "simulated": self.simulated,
                "synced": self.synced, "failed": self.failed,
                "reclaimed": self.reclaimed,
                "store_errors": self.store_errors,
                "waited_s": round(self.waited_s, 3),
                "wall_s": round(self.wall_s, 3),
                "failures": list(self.failures)}


def _store_call(report: WorkerReport, fn, *args, **kwargs):
    """One store interaction, absorbing (injected or real) IO failure.

    The content-addressed disk cache is the ground truth; a failed
    sqlite write only delays the row until the next ``sync_from_cache``
    (or ``repro doctor --repair``) against a healthy store.  Returns
    the call's result, or None when it was absorbed.
    """
    try:
        return fn(*args, **kwargs)
    except (OSError, sqlite3.OperationalError):
        report.store_errors += 1
        return None


def run_worker(campaign: Campaign,
               store: Optional[CampaignStore] = None,
               worker: Optional[str] = None,
               ttl: Optional[float] = None,
               max_cells: Optional[int] = None,
               poll_s: float = 0.2,
               timeout: Optional[float] = None,
               retries: Optional[int] = None) -> WorkerReport:
    """Pull-execute missing cells until none are claimable.

    Cells run one at a time, serially in this process (``jobs=1``) —
    the worker pool *is* the parallelism, so N workers on M hosts give
    N-wide fan-out without nested process pools.  ``max_cells`` bounds
    how many cells this worker will claim (for smoke tests and
    benchmarks); ``poll_s`` is the back-off while waiting on peers.
    """
    start = time.perf_counter()
    me = worker_id(worker)
    ttl = lease_ttl(ttl)
    owns_store = store is None
    if owns_store:
        store = CampaignStore()
    report = WorkerReport(worker=me, campaign_id=campaign.campaign_id)
    #: Cells that failed under this worker this session: skipped on
    #: later passes so a permanently broken cell cannot livelock the
    #: pull loop (the failure row stays for run_missing to retry).
    local_failures = set()
    #: Cells this worker knows are in the disk cache but could not
    #: record (store write absorbed): skipped so a permanently failing
    #: store cannot livelock the loop — the rows land on the next
    #: healthy sync.
    local_done = set()
    try:
        cells = _store_call(report, store.register, campaign)
        if cells is None:
            cells = campaign.cells()
        while True:
            if max_cells is not None and report.claimed >= max_cells:
                break
            _store_call(report, store.sync_from_cache, campaign, cells)
            missing = [cell for cell in store.missing(campaign, cells)
                       if cell.index not in local_failures
                       and cell.index not in local_done]
            if not missing:
                break
            progressed = False
            for cell in missing:
                if max_cells is not None and report.claimed >= max_cells:
                    break
                path = lease_path(campaign, cell)
                if not try_claim(path, me):
                    if reclaim_if_stale(path, ttl, me):
                        report.reclaimed += 1
                        if not try_claim(path, me):
                            continue
                    else:
                        continue
                report.claimed += 1
                progressed = True
                try:
                    _run_cell(campaign, cell, store, report,
                              timeout=timeout, retries=retries,
                              local_failures=local_failures,
                              local_done=local_done)
                finally:
                    release(path)
            if progressed:
                continue
            # Everything still missing is leased to peers: wait for
            # their results to appear in the cache (or their leases to
            # go stale) instead of spinning.
            wait_start = time.perf_counter()
            time.sleep(poll_s)
            report.waited_s += time.perf_counter() - wait_start
        _store_call(report, store.record_engine_stats,
                    campaign.campaign_id, engine_stats().to_dict())
        report.wall_s = time.perf_counter() - start
        return report
    finally:
        if owns_store:
            store.close()


def _run_cell(campaign: Campaign, cell: CampaignCell,
              store: CampaignStore, report: WorkerReport,
              timeout: Optional[float], retries: Optional[int],
              local_failures: set, local_done: set) -> None:
    """Execute one claimed cell and publish its outcome."""
    # A peer may have finished this cell between our sync and our
    # claim; the content-addressed cache is the authority.
    cached = disk_cache.load(cell.key, cell.digest)
    if cached is not None:
        local_done.add(cell.index)
        _store_call(report, store.record, campaign.campaign_id, cell,
                    "ok", metrics=cached, source="disk",
                    wall_time_s=cached.wall_time_s)
        report.synced += 1
        return
    batch = run_batch([cell.request], jobs=1, strict=False,
                      fail_fast=False, timeout=timeout, retries=retries)
    outcome = batch.outcomes[0]
    if outcome.ok:
        local_done.add(cell.index)
        _store_call(report, store.record, campaign.campaign_id, cell,
                    "ok", metrics=outcome.metrics,
                    attempts=outcome.attempts, source=outcome.source,
                    wall_time_s=outcome.metrics.wall_time_s)
        report.simulated += 1
    else:
        _store_call(report, store.record, campaign.campaign_id, cell,
                    outcome.status, attempts=outcome.attempts)
        report.failed += 1
        local_failures.add(cell.index)
        reason = (outcome.failure.describe()
                  if outcome.failure is not None else outcome.status)
        report.failures.append((cell.label(), reason))
