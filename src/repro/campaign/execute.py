"""Incremental campaign execution: simulate only what the store lacks.

``run_missing`` is the campaign layer's one verb: diff the declared grid
against the results store *and* the content-addressed disk cache, then
submit only the genuinely absent cells — to the supervised batch engine
in this process, or to ``repro serve`` replicas over the shared cache
dir.  Because either engine checkpoints every completion to the disk
cache as it happens, a sweep killed at any point — SIGKILL included —
loses nothing: the next ``run_missing`` ingests the finished cells from
disk and schedules only the remainder, so an interrupted-and-resumed
sweep is bitwise-identical to an uninterrupted one with zero
re-simulated cells.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.sim.config import ConfigurationError
from repro.sim.runner import engine_stats, run_batch
from repro.sim.supervisor import RunFailure, RunOutcome
from repro.campaign.grid import Campaign, CampaignCell
from repro.campaign.store import CampaignStore

#: Cells in flight per engine job of a replica on the cluster route.  A
#: daemon runs one drained batch at a time and rendezvous placement
#: spreads the cells unevenly, so each replica needs a few per job: on a
#: 2-core host two one-job replicas ran at 0.6-0.7x ``run_missing(jobs=2)``
#: with 1 per job, 0.76-0.79x with 2, and 1.03-1.21x with 4, 8 or a whole
#: quota.
CELLS_PER_ENGINE_JOB = 4

#: Deadline of one cell on the cluster route, queueing included.
CELL_TIMEOUT_S = 3600.0


@dataclass
class CampaignRunReport:
    """What one ``run_missing`` invocation did."""

    campaign_id: str
    name: str
    total: int = 0
    done_before: int = 0       # ok rows already in the store
    synced: int = 0            # ingested from the disk cache, not re-run
    scheduled: int = 0         # cells submitted to the engine
    ok: int = 0                # scheduled cells that completed
    failed: int = 0            # scheduled cells that did not
    store_errors: int = 0      # store writes absorbed (repaired by sync)
    wall_s: float = 0.0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.done_before + self.synced + self.ok == self.total

    @property
    def cells_per_sec(self) -> float:
        done = self.synced + self.ok
        return done / self.wall_s if self.wall_s else 0.0

    def describe(self) -> str:
        lines = [(f"campaign {self.name} [{self.campaign_id}]: "
                  f"{self.done_before + self.synced + self.ok}"
                  f"/{self.total} cells done "
                  f"({self.done_before} already stored, "
                  f"{self.synced} synced from cache, "
                  f"{self.ok} simulated) in {self.wall_s:.2f}s")]
        if self.store_errors:
            lines.append(f"  {self.store_errors} store write(s) failed; "
                         f"the next sync records them from the cache")
        if self.failed:
            lines.append(f"  {self.failed} cell(s) failed:")
            lines.extend(f"    FAILED {label}: {reason}"
                         for label, reason in self.failures[:10])
        return "\n".join(lines)


def run_missing(campaign: Campaign,
                store: Optional[CampaignStore] = None,
                jobs: Optional[int] = None,
                use_cache: bool = True,
                timeout: Optional[float] = None,
                retries: Optional[int] = None,
                replicas: Optional[Sequence[Tuple[str, int]]] = None
                ) -> CampaignRunReport:
    """Bring the campaign's results store to completion incrementally.

    With *replicas* (``(host, port)`` pairs sharing this cache dir), the
    missing cells run on those daemons, whose engines own ``jobs``,
    ``use_cache``, ``timeout`` and ``retries`` (setting one raises
    ``ConfigurationError``); ``ConnectionError`` is raised when no
    replica answers ``/healthz``.

    Returns a :class:`CampaignRunReport`; never raises on individual run
    failures (they are recorded in the store with their failure reason
    and retried by the next invocation), nor on a failed store write: the
    disk cache holds the result, and the next sync records it.
    """
    if replicas and (jobs is not None or not use_cache
                     or timeout is not None or retries is not None):
        raise ConfigurationError(
            "jobs, no-cache, timeout and retries cannot be set with "
            "replicas: their engines own those settings")
    start = time.perf_counter()
    owns_store = store is None
    if owns_store:
        store = CampaignStore()
    try:
        report = CampaignRunReport(campaign_id=campaign.campaign_id,
                                   name=campaign.name)

        def store_call(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (OSError, sqlite3.OperationalError):
                report.store_errors += 1
                return None

        cells = store_call(store.register, campaign) or campaign.cells()
        report.total = len(cells)
        report.synced = store_call(store.sync_from_cache, campaign,
                                   cells) or 0
        missing = store.missing(campaign, cells)
        report.done_before = (report.total - len(missing)
                              - report.synced)
        report.scheduled = len(missing)
        if missing:
            if replicas:
                outcomes = _serve_cells(campaign, missing, replicas)
            else:
                outcomes = run_batch([cell.request for cell in missing],
                                     jobs=jobs, use_cache=use_cache,
                                     strict=False, fail_fast=False,
                                     timeout=timeout,
                                     retries=retries).outcomes
            for cell, outcome in zip(missing, outcomes):
                if outcome.ok:
                    store_call(store.record, campaign.campaign_id, cell,
                               "ok", metrics=outcome.metrics,
                               attempts=outcome.attempts,
                               source=outcome.source,
                               wall_time_s=outcome.metrics.wall_time_s)
                    report.ok += 1
                else:
                    store_call(store.record, campaign.campaign_id, cell,
                               outcome.status, attempts=outcome.attempts)
                    report.failed += 1
                    reason = (outcome.failure.describe()
                              if outcome.failure is not None
                              else outcome.status)
                    report.failures.append((cell.label(), reason))
            if not replicas:
                store_call(store.record_engine_stats, campaign.campaign_id,
                           engine_stats().to_dict())
        report.wall_s = time.perf_counter() - start
        return report
    finally:
        if owns_store:
            store.close()


def _serve_cells(campaign: Campaign, cells: List[CampaignCell],
                 replicas: Sequence[Tuple[str, int]]) -> List[RunOutcome]:
    """One outcome per cell, in order: its ``/submit`` body through one
    ``ClusterClient``, which owns placement, coalescing, failover,
    429/503 and daemon restarts."""
    # Here, not at the top: serve.protocol imports campaign.grid, and
    # the local route should not pay for the serving layer's imports.
    from concurrent.futures import ThreadPoolExecutor

    from repro.sim import cache as disk_cache
    from repro.serve import protocol
    from repro.serve.client import ServeClientError
    from repro.serve.cluster import ClusterClient

    client = ClusterClient(replicas=list(replicas),
                           client_id=f"campaign-{campaign.campaign_id}")

    def run(cell: CampaignCell) -> RunOutcome:
        body = cell.submit_body()
        try:
            reply = client.submit_and_wait(body, timeout=CELL_TIMEOUT_S)
        except ServeClientError as exc:
            result = {"status": "failed", "failure": {
                "kind": "transport", "message": str(exc)}}
        else:
            # No run result: a 4xx, the replica rejected the body.
            result = reply.result or {"status": "failed", "failure": {
                "kind": "rejected", "message": f"HTTP {reply.status}: "
                                               f"{reply.body}"}}
        attempts = result.get("attempts", 0)      # a cache hit has none
        if result["status"] == "ok":
            metrics = disk_cache.metrics_from_dict(result["metrics"])
            if protocol.request_digest(body) != cell.digest:
                # An int table_scale or gb_fraction, which the daemon
                # reads as a float: the cell's own address gets a copy.
                disk_cache.store(cell.key, metrics)
            return RunOutcome("ok", attempts=attempts,
                              source=result["source"], metrics=metrics)
        failure = result.get("failure") or {}
        return RunOutcome(result["status"], attempts=attempts,
                          failure=RunFailure(
                              failure.get("kind", "error"),
                              failure.get("exc_type", ""),
                              failure.get("message", ""),
                              attempts=attempts))

    try:
        healthy = client.healthy_members()
        if not healthy:
            raise ConnectionError(
                "no replica answers /healthz: "
                + ", ".join(f"{host}:{port}" for host, port in replicas))
        # Keep every live engine fed, within each replica's quota.
        width = min(len(cells), sum(
            min(CELLS_PER_ENGINE_JOB * health.get("engine_jobs", 1),
                health.get("client_quota") or len(cells))
            for health in healthy.values()))
        with ThreadPoolExecutor(max_workers=width,
                                thread_name_prefix="campaign-serve") as pool:
            return list(pool.map(run, cells))
    finally:
        client.close()
