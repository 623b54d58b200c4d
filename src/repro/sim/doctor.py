"""``repro doctor``: one scan-and-heal pass over the durable universe.

Every layer already *tolerates* damage locally — the cache quarantines
torn entries on read, snapshots refuse to resume from doubtful bytes,
the store never downgrades an ok row, stale member records get reaped —
but each of those heals lazily, on the next unlucky reader.  The doctor
makes healing eager and global: one command (or one daemon startup)
walks the whole durable state, reports every finding, and with
``repair=True`` fixes what has a safe fix.  What "valid" means for a
file, and how a bad one is repaired, is its format owner's rule (named
below); the doctor only walks the layers and reports:

=============  ======================================  ===================
layer          finding (rule owner)                    repair
=============  ======================================  ===================
cache          corrupt or stale entry                  quarantine
               (``cache.check``, ``cache.OBJECTS``)
snapshot       corrupt file (``snapshot.check``)       quarantine
snapshot       stale file (old salt, unresumable)      unlink
store          sqlite integrity failure                move DB aside
                                                       (rebuilt by sync)
store          rows missing vs. cache                  ``sync_from_cache``
member         record older than ``REPRO_MEMBER_TTL``  reap (re-published
               or corrupt (``cluster.parse_record``)   on next heartbeat)
member         a crashed reaper's takeover tombstone   unlink
               (``repro.sim.records``)
cache, snap-   orphaned writer ``*.tmp``               unlink
shot, member
=============  ======================================  ===================

Nothing is ever deleted that could hold evidence (corrupt bytes go to
quarantine; a broken database is renamed ``*.corrupt.<pid>``, not
dropped) and nothing is repaired that might belong to a live writer
(temp files younger than the orphan age, member records younger than
the TTL).

The scan itself never injects faults: :func:`diagnose` runs with the
``REPRO_IO_FAULTS`` shim disarmed for the duration, so the doctor can
heal the damage an armed plan created without tripping over it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.sim import cache as disk_cache
from repro.sim import iofaults, records
from repro.sim import snapshot as snapshot_store


@dataclass
class DoctorFinding:
    """One problem the scan surfaced (and possibly repaired)."""

    layer: str          # cache | snapshot | store | member
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

def _fix(report: DoctorReport, repair: bool, layer: str, kind: str,
         path: Path, action: str, fix: Optional[Callable[[Path], str]],
         detail: str = "") -> None:
    """Report one finding; with *repair*, apply *fix* (None: there is no
    safe one), which returns what it did or raises OSError."""
    finding = DoctorFinding(layer=layer, kind=kind, path=str(path),
                            detail=detail, action=action)
    if repair and fix is not None:
        try:
            finding.action = fix(path)
            finding.repaired = True
        except OSError as exc:
            finding.detail = f"{detail}; {exc}" if detail else str(exc)
    report.findings.append(finding)


def _unlink(path: Path) -> str:
    path.unlink()
    return "unlinked"


def _reap(path: Path) -> str:
    if records.reap(path, f"doctor.{os.getpid()}") or not path.exists():
        return "reaped"
    raise OSError(f"takeover rename of {path.name} failed")


def _scan_temps(report: DoctorReport, repair: bool, layer: str,
                root: Path, pattern: str, tmp_age_s: float) -> None:
    """Writer temp files are TTL records: stale ones leaked from a crash."""
    for temp in records.RecordSet(root, pattern, tmp_age_s).scan():
        if temp.status == "stale":
            _fix(report, repair, layer, "tmp-orphan", temp.path, "unlink",
                 _unlink, "leaked by a crashed writer")


def _scan_objects(report: DoctorReport, repair: bool, layer: str,
                  tree: disk_cache.ObjectTree, tmp_age_s: float) -> None:
    """A content-addressed objects tree, judged by its owner's rules."""
    files = tree.files()
    for path, _ in files:
        status = tree.check(path)
        if status != "ok":
            _fix(report, repair, layer, status, path, tree.disposal(status),
                 functools.partial(tree.repair, status=status))
    _scan_temps(report, repair, layer, tree.objects, "*/*.tmp", tmp_age_s)
    report.scanned[layer] = len(files)
    report.quarantine[layer] = tree.held


def _scan_records(report: DoctorReport, repair: bool, layer: str,
                  kind: records.RecordSet, tmp_age_s: float) -> None:
    """TTL records: a stale or unparseable one is reaped (its live
    owner, if any, re-publishes), as are crashed reapers' takeover
    tombstones and crashed publishers' temp files."""
    found = kind.scan()
    tombstones = kind.tombstones()
    for record in found:
        if record.status != "ok":
            _fix(report, repair, layer, record.status, record.path,
                 "reap", _reap, record.detail)
    for path in tombstones:
        _fix(report, repair, layer, "tombstone", path, "unlink", _unlink,
             "leftover takeover marker")
    _scan_temps(report, repair, layer, kind.root, "*.tmp", tmp_age_s)
    report.scanned[layer] = len(found) + len(tombstones)


def _move_aside(db: Path) -> str:
    """Rename (never delete) a database sqlite cannot read; the next
    writer recreates the schema and sync refills it from the cache."""
    aside = db.with_name(f"{db.name}.corrupt.{os.getpid()}")
    os.replace(db, aside)
    for suffix in ("-wal", "-shm"):
        try:
            os.unlink(str(db) + suffix)
        except OSError:
            pass
    return f"moved aside to {aside}"


def _scan_store(report: DoctorReport, repair: bool) -> None:
    """sqlite integrity + store-vs-cache divergence, per campaign."""
    from repro.campaign.store import CampaignStore, store_path

    path = store_path()
    report.scanned["store"] = 0
    if not path.exists():
        return
    report.scanned["store"] += 1
    try:
        with contextlib.closing(sqlite3.connect(str(path),
                                                timeout=30.0)) as conn:
            row = conn.execute("PRAGMA quick_check").fetchone()
        detail = "" if row and row[0] == "ok" else (
            f"quick_check: {row[0] if row else '?'}")
    except sqlite3.Error as exc:
        detail = f"unreadable: {exc}"
    if detail:
        _fix(report, repair, "store", "corrupt", path,
             "move aside; rebuilt from cache on next sync", _move_aside,
             detail)
        return

    # Divergence: any registered campaign whose cache-resident results
    # are not reflected in the store (the store is an index over the
    # content-addressed cache; missing rows are pure repair targets).
    try:
        with CampaignStore(path) as store:
            for meta in store.campaigns():
                report.scanned["store"] += 1
                try:
                    campaign = store.campaign(meta["campaign_id"])
                    missing = store.missing(campaign)
                except (ValueError, TypeError, KeyError) as exc:
                    # A spec that no longer parses, or one whose cells
                    # the request parser rejects: an older version
                    # registered cells without parsing them.
                    _fix(report, repair, "store", "bad-spec", path,
                         "no safe repair (rows kept)", None,
                         f"campaign {meta['campaign_id']}: "
                         f"unparseable spec_json ({exc})")
                    continue
                divergent = [
                    cell for cell in missing
                    if disk_cache.load(cell.key, cell.digest) is not None]
                if divergent:       # _fix calls the repair right away
                    _fix(report, repair, "store", "divergence", path,
                         "sync_from_cache",
                         lambda _: f"sync_from_cache ingested "
                                   f"{store.sync_from_cache(campaign)} rows",
                         f"campaign {campaign.name}: {len(divergent)} "
                         f"cache-resident cells missing from the store")
    except (sqlite3.Error, OSError) as exc:
        _fix(report, repair, "store", "scan-error", path, "no repair", None,
             str(exc))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

#: Every layer, in scan order.
LAYERS = ("cache", "snapshot", "store", "member")
_TREES = {"cache": disk_cache.OBJECTS, "snapshot": snapshot_store.OBJECTS}


def diagnose(repair: bool = False,
             tmp_age_s: Optional[float] = None,
             layers: Sequence[str] = LAYERS) -> DoctorReport:
    """Scan (and with ``repair=True`` heal) *layers* of the durable state.

    A member record is stale past ``REPRO_MEMBER_TTL``, a writer temp
    file an orphan past ``tmp_age_s`` (default
    ``cache.TMP_ORPHAN_AGE_S``).  The IO fault
    shim is disarmed for the duration so an armed ``REPRO_IO_FAULTS``
    plan cannot sabotage its own cleanup; the previous arming (even a
    lazy one from the environment) is restored afterwards.
    """
    begin = time.perf_counter()
    if tmp_age_s is None:
        tmp_age_s = disk_cache.TMP_ORPHAN_AGE_S
    report = DoctorReport(cache_dir=str(disk_cache.cache_dir()),
                          repair=repair)
    with iofaults.suspended():
        for layer in layers:
            if layer == "store":
                _scan_store(report, repair)
            elif layer == "member":
                from repro.serve import cluster
                _scan_records(report, repair, layer,
                              cluster.member_records(), tmp_age_s)
            else:
                _scan_objects(report, repair, layer, _TREES[layer], tmp_age_s)
    report.elapsed_s = time.perf_counter() - begin
    return report
