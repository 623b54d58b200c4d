"""Persistent on-disk result cache for finished simulation runs.

The figure benchmarks regenerate overlapping (workload, prefetcher,
variant, config) runs across *pytest sessions*, not just within one; the
in-process memo in ``repro.sim.runner`` cannot help there.  This module
stores finished ``RunMetrics`` on disk, content-addressed by the complete
run fingerprint, so a warm re-run of any figure driver is served from disk
instead of re-simulating.

Layout (under ``REPRO_CACHE_DIR`` or ``~/.cache/repro``)::

    objects/<2-hex fan-out>/<sha256 of salted key>.json

Each entry is a standalone JSON document carrying the serialization
``version``, the code-version ``salt`` and the full ``key`` repr (for
auditability) plus the ``metrics`` payload.  Guarantees:

- **Atomic writes**: entries are written to a temp file in the same
  directory and ``os.replace``d into place, so concurrent writers (parallel
  workers, parallel pytest sessions) can never expose a torn entry.
- **Corruption tolerance**: any unreadable/undecodable/mis-shaped entry is
  treated as a miss and quarantined to ``<cache>/quarantine/`` (never an
  exception, never a silent delete) so torn writes remain auditable;
  ``verify`` scans the whole cache and ``verify(prune=True)`` quarantines
  corrupt and version-stale entries in bulk (``repro cache verify``).
- **Versioned invalidation**: the key is salted with ``CACHE_VERSION`` and
  ``CODE_VERSION``; bumping either orphans every old entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.prefetch.base import BoundaryStats
from repro.sim import iofaults
from repro.sim.metrics import RunMetrics

#: Serialization format version: bump when the on-disk payload shape or the
#: fields of ``RunMetrics``/``BoundaryStats`` change incompatibly.
CACHE_VERSION = 1

#: Code-version salt: bump whenever simulation *semantics* change so that
#: results produced by older code can never be returned for new runs.
CODE_VERSION = "2026-08-05.3"


def cache_enabled() -> bool:
    """Disk cache on/off switch (``REPRO_DISK_CACHE=0`` disables)."""
    return os.environ.get("REPRO_DISK_CACHE", "1").lower() not in (
        "0", "off", "no", "false")


def cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _salt() -> str:
    return f"{CACHE_VERSION}:{CODE_VERSION}"


def key_digest(key: tuple) -> str:
    """Content address of one run key, salted by the cache/code version."""
    return hashlib.sha256(repr((_salt(), key)).encode()).hexdigest()


def entry_path(key: tuple) -> Path:
    digest = key_digest(key)
    return cache_dir() / "objects" / digest[:2] / f"{digest[2:]}.json"


def quarantine_dir() -> Path:
    """Where unreadable/stale entries are moved instead of deleted."""
    return cache_dir() / "quarantine"


def _quarantine(path: Path) -> Optional[Path]:
    """Move a bad entry into the quarantine directory.

    Falls back to unlinking when the move itself fails (e.g. read-only
    quarantine dir), so a bad entry can never keep poisoning lookups.
    Returns the quarantined path, or None when the entry was unlinked.
    """
    try:
        quarantine_dir().mkdir(parents=True, exist_ok=True)
        dest = quarantine_dir() / path.name
        serial = 0
        while dest.exists():
            # Never overwrite earlier quarantined evidence: probe
            # pid-and-serial suffixes until a free name is found.
            serial += 1
            dest = (quarantine_dir()
                    / f"{path.stem}.{os.getpid()}.{serial}{path.suffix}")
        os.replace(path, dest)
        return dest
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


# ----------------------------------------------------------------------
# RunMetrics (de)serialization
# ----------------------------------------------------------------------

def metrics_to_dict(metrics: RunMetrics) -> dict:
    """Flatten a RunMetrics (including BoundaryStats) to JSON-safe types."""
    data = {f.name: getattr(metrics, f.name)
            for f in dataclasses.fields(metrics) if f.name != "boundary"}
    data["boundary"] = {slot: getattr(metrics.boundary, slot)
                        for slot in BoundaryStats.__slots__}
    return data


def metrics_from_dict(data: dict) -> RunMetrics:
    """Rebuild a RunMetrics; unknown keys are ignored, missing use defaults."""
    known = {f.name for f in dataclasses.fields(RunMetrics)}
    fields = {k: v for k, v in data.items()
              if k in known and k != "boundary"}
    metrics = RunMetrics(**fields)
    for slot, value in data.get("boundary", {}).items():
        if slot in BoundaryStats.__slots__:
            setattr(metrics.boundary, slot, value)
    return metrics


# ----------------------------------------------------------------------
# Load / store
# ----------------------------------------------------------------------

def store(key: tuple, metrics: RunMetrics) -> bool:
    """Atomically persist one finished run; returns False when disabled."""
    if not cache_enabled():
        return False
    path = entry_path(key)
    payload = {
        "version": CACHE_VERSION,
        "salt": _salt(),
        "key": repr(key),
        "metrics": metrics_to_dict(metrics),
    }
    try:
        # Full crash-consistent publish: write + fsync the temp file,
        # atomic rename, fsync the directory — a power loss at any
        # instant leaves the old entry or the new one, never a torn mix
        # (and the entry itself is durable, not just the rename).
        iofaults.publish_bytes("cache", path, json.dumps(payload).encode())
    except OSError:
        return False                # cache dir unwritable -> run uncached
    return True


def load_payload(key: tuple) -> Optional[dict]:
    """Fetch one run's *serialized* metrics dict exactly as stored.

    This is the serving layer's hot admission path: returning the raw
    on-disk dict (instead of a rebuilt ``RunMetrics``) makes a cache-hit
    response bitwise-identical to the JSON any other reader of the same
    entry would serialize, with no decode/re-encode in between.  Any
    corruption or version mismatch is a miss (corrupt entries are
    quarantined, exactly like :func:`load`).
    """
    if not cache_enabled():
        return None
    path = entry_path(key)
    try:
        payload = json.loads(iofaults.read_bytes("cache.read", path))
        if (payload.get("version") != CACHE_VERSION
                or payload.get("salt") != _salt()):
            return None
        metrics = payload["metrics"]
        if not isinstance(metrics, dict):
            raise TypeError("metrics payload is not a dict")
        return metrics
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, KeyError):
        # Torn/garbled entry (e.g. crashed writer on a non-atomic
        # filesystem): quarantine it so the slot heals on the next
        # store while the bad bytes stay auditable.
        _quarantine(path)
        return None


def load(key: tuple) -> Optional[RunMetrics]:
    """Fetch one run from disk; any corruption or mismatch is a miss."""
    payload = load_payload(key)
    if payload is None:
        return None
    try:
        return metrics_from_dict(payload)
    except (ValueError, TypeError, KeyError):
        _quarantine(entry_path(key))
        return None


# ----------------------------------------------------------------------
# Maintenance (powers the `repro cache` CLI subcommand)
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Summary of the on-disk cache state."""

    directory: Path
    entries: int = 0
    total_bytes: int = 0

    def describe(self) -> str:
        size_kb = self.total_bytes / 1024
        state = "enabled" if cache_enabled() else "disabled (REPRO_DISK_CACHE)"
        return (f"cache dir : {self.directory}\n"
                f"state     : {state}\n"
                f"entries   : {self.entries}\n"
                f"size      : {size_kb:.1f} KiB\n"
                f"version   : {_salt()}")


@dataclass
class CacheEntry:
    """Metadata of one persisted run (for ``repro cache list``)."""

    path: Path
    size_bytes: int = 0
    workload: str = "?"
    prefetcher: str = "?"
    variant: str = "?"
    current: bool = False   # entry salt matches the running code version

    def to_dict(self) -> dict:
        """JSON-safe row for ``repro cache list --json`` consumers."""
        return {"path": str(self.path), "size_bytes": self.size_bytes,
                "workload": self.workload, "prefetcher": self.prefetcher,
                "variant": self.variant, "current": self.current}


def list_entries() -> "list[CacheEntry]":
    """Enumerate every readable cache entry, newest first.

    Corrupt entries are skipped (``load`` heals them lazily); entries
    written by older code versions are listed with ``current=False`` so
    stale bulk can be spotted before a ``clear``.
    """
    objects = cache_dir() / "objects"
    entries: list[CacheEntry] = []
    if not objects.is_dir():
        return entries
    stamped = []
    for path in objects.glob("*/*.json"):
        try:
            stat_result = path.stat()
            payload = json.loads(path.read_text())
            metrics = payload.get("metrics", {})
            entry = CacheEntry(
                path=path, size_bytes=stat_result.st_size,
                workload=str(metrics.get("workload", "?")),
                prefetcher=str(metrics.get("prefetcher", "?")),
                variant=str(metrics.get("variant", "?")),
                current=payload.get("salt") == _salt())
            stamped.append((stat_result.st_mtime, entry))
        except (OSError, ValueError, TypeError):
            continue
    stamped.sort(key=lambda pair: pair[0], reverse=True)
    return [entry for _, entry in stamped]


def stats() -> CacheStats:
    result = CacheStats(directory=cache_dir())
    objects = cache_dir() / "objects"
    if not objects.is_dir():
        return result
    for path in objects.glob("*/*.json"):
        try:
            result.total_bytes += path.stat().st_size
            result.entries += 1
        except OSError:
            continue
    return result


def _entry_status(path: Path) -> str:
    """Classify one entry: ``ok`` | ``stale`` (old version) | ``corrupt``."""
    try:
        payload = json.loads(path.read_text())
        if (payload.get("version") != CACHE_VERSION
                or payload.get("salt") != _salt()):
            return "stale"
        metrics_from_dict(payload["metrics"])
        return "ok"
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return "corrupt"


@dataclass
class CacheVerifyReport:
    """Result of a full cache scan (``repro cache verify``)."""

    directory: Path
    scanned: int = 0
    ok: int = 0
    corrupt: int = 0
    stale: int = 0
    tmp_orphans: int = 0        # leaked writer temp files (crashed stores)
    tmp_removed: int = 0        # ... removed by --prune
    quarantine_entries: int = 0  # files sitting in <cache>/quarantine
    quarantined: "list[Path]" = dataclasses.field(default_factory=list)

    @property
    def findings(self) -> int:
        """Problems a --prune pass would act on."""
        return self.corrupt + self.stale + self.tmp_orphans

    def describe(self) -> str:
        lines = [f"cache dir : {self.directory}",
                 f"scanned   : {self.scanned}",
                 f"ok        : {self.ok}",
                 f"corrupt   : {self.corrupt}",
                 f"stale     : {self.stale}",
                 f"tmp files : {self.tmp_orphans} orphaned"
                 + (f" ({self.tmp_removed} removed)"
                    if self.tmp_removed else ""),
                 f"quarantine: {self.quarantine_entries} entries"]
        if self.quarantined:
            lines.append(f"quarantined {len(self.quarantined)} entries "
                         f"to {quarantine_dir()}")
        elif self.corrupt or self.stale or self.tmp_orphans:
            lines.append("re-run with --prune to clean them up")
        return "\n".join(lines)


#: A writer temp file older than this is an orphan from a crashed
#: store, not a live in-flight publish, and is safe to sweep.
TMP_ORPHAN_AGE_S = 60.0


def iter_tmp_orphans(objects: Path,
                     min_age_s: float = TMP_ORPHAN_AGE_S,
                     pattern: str = "*/*.tmp") -> "list[Path]":
    """Leaked temp files matching *pattern* under *objects*, oldest-first.

    The default *pattern* walks a fanned-out objects tree; a flat
    directory passes ``"*.tmp"``.  Only files older than *min_age_s*
    are reported so a concurrent writer's still-open temp file is never
    mistaken for a leak.
    """
    orphans = []
    now = time.time()
    for path in sorted(objects.glob(pattern)):
        try:
            if now - path.stat().st_mtime >= min_age_s:
                orphans.append(path)
        except OSError:
            continue
    return orphans


def count_quarantine(directory: Path) -> int:
    """Number of files held in a quarantine directory."""
    if not directory.is_dir():
        return 0
    return sum(1 for path in directory.iterdir() if path.is_file())


def verify(prune: bool = False,
           tmp_age_s: float = TMP_ORPHAN_AGE_S) -> CacheVerifyReport:
    """Scan every cache entry, classifying it as ok/stale/corrupt.

    Also reports orphaned writer temp files (leaked by crashed stores)
    and the size of the quarantine.  With ``prune=True``, corrupt and
    stale entries are moved to the quarantine directory (not deleted)
    so they stop serving lookups but remain available for inspection,
    and orphaned temp files — which never held publishable data — are
    unlinked outright.
    """
    report = CacheVerifyReport(directory=cache_dir())
    objects = cache_dir() / "objects"
    report.quarantine_entries = count_quarantine(quarantine_dir())
    if not objects.is_dir():
        return report
    for path in sorted(objects.glob("*/*.json")):
        report.scanned += 1
        status = _entry_status(path)
        if status == "ok":
            report.ok += 1
            continue
        if status == "stale":
            report.stale += 1
        else:
            report.corrupt += 1
        if prune:
            dest = _quarantine(path)
            if dest is not None:
                report.quarantined.append(dest)
    for path in iter_tmp_orphans(objects, tmp_age_s):
        report.tmp_orphans += 1
        if prune:
            try:
                path.unlink()
                report.tmp_removed += 1
            except OSError:
                continue
    return report


def clear() -> int:
    """Delete every cache entry; returns the number removed."""
    objects = cache_dir() / "objects"
    removed = 0
    if not objects.is_dir():
        return removed
    for path in objects.glob("*/*"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
    for sub in objects.glob("*"):
        try:
            sub.rmdir()
        except OSError:
            continue
    return removed
