"""``repro doctor``: one scan-and-heal pass over the durable universe.

Every layer already *tolerates* damage locally — the cache quarantines
torn entries on read, snapshots refuse to resume from doubtful bytes,
the store never downgrades an ok row, stale leases get reclaimed — but
each of those heals lazily, on the next unlucky reader.  The doctor
makes healing eager and global: one command (or one daemon startup)
walks the whole durable state, reports every finding, and with
``repair=True`` fixes what has a safe fix:

====================  ==========================  ======================
layer                 finding                     repair
====================  ==========================  ======================
cache                 corrupt entry               quarantine
cache                 stale entry (old salt)      quarantine
cache                 orphaned writer ``*.tmp``   unlink
snapshot              corrupt/truncated file      quarantine
snapshot              stale file (old salt)       unlink (unresumable)
snapshot              orphaned writer ``*.tmp``   unlink
store                 sqlite integrity failure    move DB aside (rebuilt
                                                  from cache by sync)
store                 rows missing vs. cache      ``sync_from_cache``
lease                 stale claim (> TTL)         unlink
member                corrupt cluster record      unlink (re-published
                                                  on next heartbeat)
member                stale cluster record        unlink
member                orphaned writer ``*.tmp``   unlink
====================  ==========================  ======================

Nothing is ever deleted that could hold evidence (corrupt bytes go to
quarantine; a broken database is renamed ``*.corrupt.<pid>``, not
dropped) and nothing is repaired that might belong to a live writer
(temp files younger than the orphan age, leases younger than the TTL).

The scan itself never injects faults: :func:`diagnose` runs with the
``REPRO_IO_FAULTS`` shim disarmed for the duration, so the doctor can
heal the damage an armed plan created without tripping over it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.sim import cache as disk_cache
from repro.sim import iofaults
from repro.sim import snapshot as snapshot_store

DEFAULT_LEASE_TTL_S = 300.0


@dataclass
class DoctorFinding:
    """One problem the scan surfaced (and possibly repaired)."""

    layer: str          # cache | snapshot | store | lease | member
    kind: str           # corrupt | stale | tmp-orphan | divergence | ...
    path: str
    detail: str = ""
    repaired: bool = False
    action: str = ""    # what the repair did (or would do)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        state = f"repaired: {self.action}" if self.repaired else (
            f"repair: {self.action}" if self.action else "no repair")
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{self.layer}/{self.kind}] {self.path}{detail} — {state}"


@dataclass
class DoctorReport:
    """Structured outcome of one doctor pass (``repro doctor --json``)."""

    cache_dir: str = ""
    repair: bool = False
    scanned: dict = field(default_factory=dict)   # layer -> items seen
    findings: List[DoctorFinding] = field(default_factory=list)
    quarantine: dict = field(default_factory=dict)  # layer -> held files
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        """No findings at all — the durable state needs nothing."""
        return not self.findings

    @property
    def healthy(self) -> bool:
        """Nothing left unrepaired (clean, or every finding was fixed)."""
        return all(f.repaired for f in self.findings)

    def count(self, layer: Optional[str] = None,
              kind: Optional[str] = None) -> int:
        return sum(1 for f in self.findings
                   if (layer is None or f.layer == layer)
                   and (kind is None or f.kind == kind))

    def to_dict(self) -> dict:
        return {
            "cache_dir": self.cache_dir,
            "repair": self.repair,
            "clean": self.clean,
            "healthy": self.healthy,
            "scanned": dict(self.scanned),
            "findings": [f.to_dict() for f in self.findings],
            "quarantine": dict(self.quarantine),
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def summary(self) -> str:
        if self.clean:
            return (f"doctor: clean — "
                    f"{sum(self.scanned.values())} items scanned, "
                    f"0 findings")
        repaired = sum(1 for f in self.findings if f.repaired)
        state = ("healthy" if self.healthy
                 else f"{len(self.findings) - repaired} unrepaired")
        return (f"doctor: {len(self.findings)} findings "
                f"({repaired} repaired, {state}) across "
                f"{sum(self.scanned.values())} scanned items")

    def describe(self) -> str:
        lines = [f"cache dir : {self.cache_dir}",
                 f"mode      : {'repair' if self.repair else 'scan-only'}"]
        for layer in sorted(self.scanned):
            held = self.quarantine.get(layer)
            extra = f" | quarantine holds {held}" if held else ""
            lines.append(f"{layer:9s} : {self.scanned[layer]} scanned, "
                         f"{self.count(layer)} findings{extra}")
        for finding in self.findings:
            lines.append("  " + finding.describe())
        lines.append(self.summary())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Layer scans
# ----------------------------------------------------------------------

def _unlink(report: DoctorReport, repair: bool, layer: str, kind: str,
            path: Path, detail: str) -> None:
    """Report one finding whose safe repair is unlinking *path*."""
    finding = DoctorFinding(layer=layer, kind=kind, path=str(path),
                            detail=detail, action="unlink")
    if repair:
        try:
            path.unlink()
            finding.repaired = True
            finding.action = "unlinked"
        except OSError as exc:
            finding.detail = str(exc)
    report.findings.append(finding)


def _scan_cache(report: DoctorReport, repair: bool,
                tmp_age_s: float) -> None:
    objects = disk_cache.cache_dir() / "objects"
    report.quarantine["cache"] = disk_cache.count_quarantine(
        disk_cache.quarantine_dir())
    scanned = 0
    if objects.is_dir():
        for path in sorted(objects.glob("*/*.json")):
            scanned += 1
            status = disk_cache._entry_status(path)
            if status == "ok":
                continue
            finding = DoctorFinding(
                layer="cache", kind=status, path=str(path),
                action="quarantine")
            if repair:
                dest = disk_cache._quarantine(path)
                finding.repaired = True
                finding.action = (f"quarantined to {dest}" if dest
                                  else "unlinked (quarantine failed)")
            report.findings.append(finding)
        for path in disk_cache.iter_tmp_orphans(objects, tmp_age_s):
            _unlink(report, repair, "cache", "tmp-orphan", path,
                    "leaked by a crashed writer")
    report.scanned["cache"] = scanned


def _snapshot_status(path: Path) -> str:
    """Classify one snapshot: ok | stale | corrupt (full body check)."""
    header = snapshot_store.read_header(path)
    if header is None:
        return "corrupt"
    if (header.get("version") != snapshot_store.SNAPSHOT_VERSION
            or header.get("salt") != snapshot_store._salt()):
        return "stale"
    if (not isinstance(header.get("access_index"), int)
            or not isinstance(header.get("length"), int)):
        return "corrupt"
    try:
        raw = path.read_bytes()
        newline = raw.index(b"\n", len(snapshot_store.MAGIC))
        body = raw[newline + 1:]
    except (OSError, ValueError):
        return "corrupt"
    if (len(body) != header["length"]
            or hashlib.sha256(body).hexdigest() != header.get("sha256")):
        return "corrupt"
    return "ok"


def _scan_snapshots(report: DoctorReport, repair: bool,
                    tmp_age_s: float) -> None:
    objects = snapshot_store.snapshot_dir() / "objects"
    report.quarantine["snapshot"] = disk_cache.count_quarantine(
        snapshot_store.quarantine_dir())
    scanned = 0
    if objects.is_dir():
        for path in sorted(objects.glob("*/*.snap")):
            scanned += 1
            status = _snapshot_status(path)
            if status == "ok":
                continue
            # A torn snapshot is evidence -> quarantine; a stale one is
            # merely unresumable re-computable state -> unlink.
            if status == "stale":
                _unlink(report, repair, "snapshot", "stale", path, "")
                continue
            finding = DoctorFinding(
                layer="snapshot", kind=status, path=str(path),
                action="quarantine")
            if repair:
                dest = snapshot_store._quarantine(path)
                finding.repaired = True
                finding.action = (f"quarantined to {dest}" if dest
                                  else "unlinked (quarantine failed)")
            report.findings.append(finding)
        for path in disk_cache.iter_tmp_orphans(objects, tmp_age_s):
            _unlink(report, repair, "snapshot", "tmp-orphan", path,
                    "leaked by a crashed writer")
    report.scanned["snapshot"] = scanned


def _scan_store(report: DoctorReport, repair: bool) -> None:
    """sqlite integrity + store-vs-cache divergence, per campaign."""
    from repro.campaign.grid import Campaign, CampaignSpecError
    from repro.campaign.store import CampaignStore, store_path

    path = store_path()
    scanned = 0
    if not path.exists():
        report.scanned["store"] = scanned
        return
    scanned += 1

    # Integrity first: a database sqlite itself cannot read is moved
    # aside (never deleted); the next healthy writer recreates the
    # schema and sync repopulates every row from the cache.
    try:
        conn = sqlite3.connect(str(path), timeout=30.0)
        try:
            row = conn.execute("PRAGMA quick_check").fetchone()
        finally:
            conn.close()
        intact = row is not None and row[0] == "ok"
        detail = "" if intact else f"quick_check: {row[0] if row else '?'}"
    except sqlite3.Error as exc:
        intact = False
        detail = f"unreadable: {exc}"
    if not intact:
        finding = DoctorFinding(
            layer="store", kind="corrupt", path=str(path), detail=detail,
            action="move aside; rebuilt from cache on next sync")
        if repair:
            aside = path.with_name(f"{path.name}.corrupt.{os.getpid()}")
            try:
                os.replace(path, aside)
                for suffix in ("-wal", "-shm"):
                    try:
                        os.unlink(str(path) + suffix)
                    except OSError:
                        pass
                finding.repaired = True
                finding.action = f"moved aside to {aside}"
            except OSError as exc:
                finding.detail = f"{detail}; move failed: {exc}"
        report.findings.append(finding)
        report.scanned["store"] = scanned
        return

    # Divergence: any registered campaign whose cache-resident results
    # are not reflected in the store (the store is an index over the
    # content-addressed cache; missing rows are pure repair targets).
    try:
        with CampaignStore(path) as store:
            for meta in store.campaigns():
                scanned += 1
                spec_row = store._conn.execute(
                    "SELECT spec_json FROM campaigns "
                    "WHERE campaign_id = ?",
                    (meta["campaign_id"],)).fetchone()
                if spec_row is None:
                    continue
                try:
                    campaign = Campaign.from_dict(
                        json.loads(spec_row[0]))
                except (CampaignSpecError, ValueError, TypeError, KeyError):
                    report.findings.append(DoctorFinding(
                        layer="store", kind="bad-spec",
                        path=str(path),
                        detail=f"campaign {meta['campaign_id']}: "
                               f"unparseable spec_json",
                        action="no safe repair (rows kept)"))
                    continue
                divergent = [
                    cell for cell in store.missing(campaign)
                    if disk_cache.load(cell.key) is not None]
                if not divergent:
                    continue
                finding = DoctorFinding(
                    layer="store", kind="divergence", path=str(path),
                    detail=(f"campaign {campaign.name}: "
                            f"{len(divergent)} cache-resident cells "
                            f"missing from the store"),
                    action="sync_from_cache")
                if repair:
                    ingested = store.sync_from_cache(campaign)
                    finding.repaired = True
                    finding.action = (f"sync_from_cache ingested "
                                      f"{ingested} rows")
                report.findings.append(finding)
    except (sqlite3.Error, OSError) as exc:
        report.findings.append(DoctorFinding(
            layer="store", kind="scan-error", path=str(path),
            detail=str(exc), action="no repair"))
    report.scanned["store"] = scanned


def _scan_leases(report: DoctorReport, repair: bool,
                 lease_ttl_s: float) -> None:
    campaigns_root = disk_cache.cache_dir() / "campaigns"
    scanned = 0
    now = time.time()
    if campaigns_root.is_dir():
        for path in sorted(campaigns_root.glob("*/leases/*.lease")):
            scanned += 1
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue            # vanished mid-scan: released by owner
            if age > lease_ttl_s:
                _unlink(report, repair, "lease", "stale", path,
                        f"age {age:.0f}s > ttl {lease_ttl_s:.0f}s")
        # Takeover tombstones a crashed reclaimer left behind.
        for path in sorted(campaigns_root.glob("*/leases/*.stale.*")):
            scanned += 1
            _unlink(report, repair, "lease", "tombstone", path,
                    "leftover takeover marker")
    report.scanned["lease"] = scanned


def _scan_members(report: DoctorReport, repair: bool,
                  tmp_age_s: float) -> None:
    """Cluster membership records in ``<cache>/cluster/members``.

    A record a replica stopped renewing (SIGKILL, wedge) or tore
    mid-publish is pure liveness metadata: unlinking is always safe
    because a live daemon re-publishes on its next heartbeat.
    """
    from repro.serve import cluster as cluster_mod

    root = cluster_mod.members_dir()
    ttl_s = cluster_mod.member_ttl()
    scanned = 0
    now = time.time()
    if root.is_dir():
        for path in sorted(root.glob("*.json")):
            scanned += 1
            kind = detail = None
            try:
                age = now - path.stat().st_mtime
                data = json.loads(path.read_bytes().decode())
                int(data["port"]), str(data["host"])
            except OSError:
                continue            # vanished mid-scan: clean shutdown
            except (ValueError, KeyError, TypeError) as exc:
                kind = "corrupt"
                detail = f"unparseable member record: {exc}"
            else:
                if age > ttl_s:
                    kind = "stale"
                    detail = f"age {age:.0f}s > ttl {ttl_s:.0f}s"
            if kind is not None:
                _unlink(report, repair, "member", kind, path, detail)
        for path in disk_cache.iter_tmp_orphans(root, tmp_age_s,
                                                pattern="*.tmp"):
            _unlink(report, repair, "member", "tmp-orphan", path,
                    "leaked by a crashed heartbeat")
    report.scanned["member"] = scanned


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def diagnose(repair: bool = False,
             lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
             tmp_age_s: float = disk_cache.TMP_ORPHAN_AGE_S
             ) -> DoctorReport:
    """Scan (and with ``repair=True`` heal) the whole durable state.

    Covers the run cache, the snapshot store, the campaign sqlite store
    (integrity + divergence from the cache), claim leases, and cluster
    membership records.  The IO fault shim is disarmed for the duration
    so an armed ``REPRO_IO_FAULTS`` plan cannot sabotage its own
    cleanup; the previous arming (including lazy re-arming from the
    environment) is restored afterwards.
    """
    begin = time.perf_counter()
    report = DoctorReport(cache_dir=str(disk_cache.cache_dir()),
                          repair=repair)
    with iofaults.suspended():
        _scan_cache(report, repair, tmp_age_s)
        _scan_snapshots(report, repair, tmp_age_s)
        _scan_store(report, repair)
        _scan_leases(report, repair, lease_ttl_s)
        _scan_members(report, repair, tmp_age_s)
    report.quarantine["cache"] = disk_cache.count_quarantine(
        disk_cache.quarantine_dir())
    report.quarantine["snapshot"] = disk_cache.count_quarantine(
        snapshot_store.quarantine_dir())
    report.elapsed_s = time.perf_counter() - begin
    return report
