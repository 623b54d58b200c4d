"""Persistent on-disk result cache for finished simulation runs.

The figure benchmarks regenerate overlapping (workload, prefetcher,
variant, config) runs across *pytest sessions*, not just within one; the
in-process memo in ``repro.sim.runner`` cannot help there.  This module
stores finished runs (``RunMetrics``, a mix's ``MixResult``) on disk,
content-addressed by the complete run fingerprint, so a warm re-run of
any figure driver is served from disk instead of re-simulating.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.prefetch.base import BoundaryStats
from repro.sim import iofaults
from repro.sim.metrics import MixResult, RunMetrics

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


def entry_path(key: tuple, digest: Optional[str] = None) -> Path:
    """Where *key*'s entry lives; pass its ``digest`` if already known."""
    if digest is None:
        digest = key_digest(key)
    return cache_dir() / "objects" / digest[:2] / f"{digest[2:]}.json"


def quarantine_dir() -> Path:
    """Where unreadable/stale entries are moved instead of deleted."""
    return OBJECTS.quarantine


def quarantine_into(directory: Path, path: Path) -> Optional[Path]:
    """Move a bad file into *directory*, never over earlier evidence.

    Falls back to unlinking when the move itself fails (e.g. read-only
    quarantine dir), so a bad file can never keep poisoning lookups.
    Returns the quarantined path, or None when the file was unlinked.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
        dest = directory / path.name
        serial = 0
        while dest.exists():
            serial += 1
            dest = (directory
                    / f"{path.stem}.{os.getpid()}.{serial}{path.suffix}")
        os.replace(path, dest)
        return dest
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def _quarantine(path: Path) -> Optional[Path]:
    return quarantine_into(quarantine_dir(), path)


# ----------------------------------------------------------------------
# RunMetrics (de)serialization
# ----------------------------------------------------------------------

def metrics_to_dict(metrics: Union[RunMetrics, MixResult]) -> dict:
    """Flatten a RunMetrics (with its BoundaryStats) or a MixResult."""
    if isinstance(metrics, MixResult):
        return {"workloads": metrics.workloads, "ipcs": metrics.ipcs,
                "prefetcher": metrics.prefetcher,
                "variant": metrics.variant}
    data = {f.name: getattr(metrics, f.name)
            for f in dataclasses.fields(metrics) if f.name != "boundary"}
    data["boundary"] = {slot: getattr(metrics.boundary, slot)
                        for slot in BoundaryStats.__slots__}
    return data


def metrics_from_dict(data: dict) -> Union[RunMetrics, MixResult]:
    """Rebuild a MixResult if ``ipcs`` is set, else a RunMetrics (unknown
    keys are ignored, missing use defaults)."""
    if "ipcs" in data:
        return MixResult(list(data["workloads"]),
                         [float(ipc) for ipc in data["ipcs"]],
                         **{k: str(data[k]) for k in ("prefetcher", "variant")
                            if k in data})
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

def store(key: tuple, metrics: Union[RunMetrics, MixResult]) -> bool:
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


def load_payload(key: tuple, digest: Optional[str] = None
                 ) -> Optional[dict]:
    """Fetch one run's *serialized* metrics dict exactly as stored.

    This is the serving layer's hot admission path: returning the raw
    on-disk dict (instead of a rebuilt ``RunMetrics``) makes a cache-hit
    response bitwise-identical to the JSON any other reader of the same
    entry would serialize, with no decode/re-encode in between.  Any
    corruption or version mismatch is a miss (corrupt entries are
    quarantined, exactly like :func:`load`).  A caller that already
    holds ``key_digest(key)`` passes it as *digest*, saving a second
    hash of the key.
    """
    if not cache_enabled():
        return None
    path = entry_path(key, digest)
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


def load(key: tuple, digest: Optional[str] = None
         ) -> Optional[Union[RunMetrics, MixResult]]:
    """Fetch one run from disk; any corruption or mismatch is a miss
    (*digest* as in :func:`load_payload`)."""
    payload = load_payload(key, digest)
    if payload is None:
        return None
    try:
        return metrics_from_dict(payload)
    except (ValueError, TypeError, KeyError):
        _quarantine(entry_path(key, digest))
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


@dataclass(frozen=True)
class ObjectTree:
    """A content-addressed store, ``<root>/objects/<2-hex>/<digest><suffix>``
    plus ``<root>/quarantine/``, with its owner's rules: the run cache
    and the snapshot store are both one, and their commands and ``repro
    doctor`` all judge a file by ``check`` and fix it by :meth:`repair`.
    """

    root: Callable[[], Path]
    suffix: str
    check: Callable[[Path], str]        # ok | stale | corrupt
    quarantine_stale: bool              # else a stale file is unlinked

    @property
    def objects(self) -> Path:
        return self.root() / "objects"

    @property
    def quarantine(self) -> Path:
        return self.root() / "quarantine"

    @property
    def held(self) -> int:
        """Number of files held in quarantine."""
        return sum(path.is_file() for path in self.quarantine.glob("*"))

    def files(self) -> "list[tuple[Path, os.stat_result]]":
        """Every stored file with its stat, newest first."""
        found = []
        for path in sorted(self.objects.glob(f"*/*{self.suffix}")):
            try:
                found.append((path, path.stat()))
            except OSError:
                continue
        return sorted(found, key=lambda item: item[1].st_mtime, reverse=True)

    def remove_all(self) -> int:
        """Unlink every file in the tree (and the emptied fan-out dirs)."""
        removed = 0
        for path in self.objects.glob("*/*"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        for sub in self.objects.glob("*"):
            try:
                sub.rmdir()
            except OSError:
                continue
        return removed

    def disposal(self, status: str) -> str:
        """A corrupt file is evidence: quarantined.  A stale one is
        quarantined too if so declared, else unlinked."""
        return ("quarantine" if status == "corrupt" or self.quarantine_stale
                else "unlink")

    def repair(self, path: Path, status: str) -> str:
        """Dispose of one bad file; returns what was done."""
        if self.disposal(status) == "unlink":
            path.unlink()
            return "unlinked"
        dest = quarantine_into(self.quarantine, path)
        return (f"quarantined to {dest}" if dest
                else "unlinked (quarantine failed)")


def check(path: Path) -> str:
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


#: The run cache: stale entries are quarantined like corrupt ones.
OBJECTS = ObjectTree(cache_dir, ".json", check, quarantine_stale=True)


def list_entries() -> "list[CacheEntry]":
    """Enumerate every readable cache entry, newest first.

    Corrupt entries are skipped (``load`` heals them lazily); entries
    written by older code versions are listed with ``current=False`` so
    stale bulk can be spotted before a ``clear``.
    """
    entries = []
    for path, stat_result in OBJECTS.files():
        try:
            payload = json.loads(path.read_text())
            metrics = payload.get("metrics", {})
            entries.append(CacheEntry(
                path=path, size_bytes=stat_result.st_size,
                workload=("+".join(metrics["workloads"]) if "ipcs" in metrics
                          else str(metrics.get("workload", "?"))),
                prefetcher=str(metrics.get("prefetcher", "?")),
                variant=str(metrics.get("variant", "?")),
                current=payload.get("salt") == _salt()))
        except (OSError, ValueError, TypeError, KeyError, AttributeError):
            continue
    return entries


def stats() -> CacheStats:
    files = OBJECTS.files()
    return CacheStats(directory=cache_dir(), entries=len(files),
                      total_bytes=sum(st.st_size for _, st in files))


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


def verify(prune: bool = False,
           tmp_age_s: float = TMP_ORPHAN_AGE_S) -> CacheVerifyReport:
    """Counts of ``repro doctor``'s cache layer: ok/stale/corrupt
    entries, orphaned writer temp files and the quarantine size.  With
    ``prune=True`` corrupt and stale entries are moved to quarantine
    (not deleted, so they stay auditable) and orphaned temp files,
    which never held publishable data, are unlinked.
    """
    from repro.sim import doctor

    scan = doctor.diagnose(repair=prune, tmp_age_s=tmp_age_s,
                           layers=("cache",))
    fixed = [f for f in scan.findings if f.repaired]
    report = CacheVerifyReport(
        directory=cache_dir(), scanned=scan.scanned["cache"],
        corrupt=scan.count("cache", "corrupt"),
        stale=scan.count("cache", "stale"),
        tmp_orphans=scan.count("cache", "tmp-orphan"),
        tmp_removed=sum(f.kind == "tmp-orphan" for f in fixed),
        quarantine_entries=scan.quarantine["cache"],
        quarantined=[Path(f.path) for f in fixed if f.kind != "tmp-orphan"])
    report.ok = report.scanned - report.corrupt - report.stale
    return report


def clear() -> int:
    """Delete every cache entry; returns the number removed."""
    return OBJECTS.remove_all()
