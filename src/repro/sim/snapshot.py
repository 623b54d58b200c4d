"""Crash-consistent mid-run snapshots for individual simulations.

A long simulation that dies (crash, SIGKILL, timeout) loses all progress;
the supervisor restarts it from access zero.  This module lets a run
checkpoint its *complete* simulation state — caches with replacement and
MSHR state, prefetcher tables, PPM/set-dueling counters, TLBs, page table,
allocator, and the core's pipeline state — every ``REPRO_SNAPSHOT_EVERY``
accesses, so a retried attempt resumes mid-trace and finishes **bitwise
identical** to an uninterrupted run.

Layout (under ``REPRO_SNAPSHOT_DIR`` or ``<cache dir>/snapshots``)::

    objects/<2-hex fan-out>/<sha256 of salted run key>.snap

One file per run key, overwritten in place as the run advances.  The file
is a one-line JSON header (version, code-version salt, run key repr, the
access index the snapshot was taken after, body length and sha256) followed
by a pickled state payload.  Guarantees, mirroring ``repro.sim.cache``:

- **Atomic writes**: temp file in the same directory, flushed and fsynced,
  then ``os.replace``d — a crash mid-store can never expose a torn
  snapshot, only the previous intact one.
- **Corruption tolerance**: a snapshot failing any header, length or
  checksum validation is quarantined to ``<snapshot dir>/quarantine/``
  (never an exception, never a silent delete) and treated as absent — the
  run restarts from scratch.
- **Versioned invalidation**: the key digest and header are salted with
  ``CACHE_VERSION``/``CODE_VERSION``; snapshots from older code are never
  resumed.

Snapshots are *transient*: ``discard`` removes a run's snapshot once it
completes, and ``prune`` (``repro snapshot prune``) sweeps leftovers from
runs that never finished.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.sim import iofaults
from repro.sim.cache import CACHE_VERSION, CODE_VERSION, cache_dir
from repro.sim.config import env_int

MAGIC = b"repro-snapshot\n"

#: Snapshot format version: bump when the header or payload shape changes.
SNAPSHOT_VERSION = 1

#: Module-level counters, for tests and diagnostics (per process).
COUNTERS = {"stores": 0, "loads": 0, "misses": 0, "quarantined": 0,
            "discards": 0}


def snapshot_every() -> int:
    """Checkpoint interval in accesses; 0 (the default) disables."""
    return env_int("REPRO_SNAPSHOT_EVERY", 0, minimum=0)


def snapshot_enabled() -> bool:
    return snapshot_every() > 0


def snapshot_dir() -> Path:
    """Snapshot root: ``REPRO_SNAPSHOT_DIR`` or ``<cache dir>/snapshots``."""
    override = os.environ.get("REPRO_SNAPSHOT_DIR")
    if override:
        return Path(override)
    return cache_dir() / "snapshots"


def _salt() -> str:
    return f"{CACHE_VERSION}:{CODE_VERSION}:{SNAPSHOT_VERSION}"


def key_digest(key: tuple) -> str:
    """Content address of one run key, salted by the code version."""
    return hashlib.sha256(repr((_salt(), key)).encode()).hexdigest()


def snapshot_path(key: tuple) -> Path:
    digest = key_digest(key)
    return snapshot_dir() / "objects" / digest[:2] / f"{digest[2:]}.snap"


def quarantine_dir() -> Path:
    return snapshot_dir() / "quarantine"


def _quarantine(path: Path) -> Optional[Path]:
    """Move a bad snapshot aside (pid/serial-probed name, never overwrite);
    fall back to unlinking so bad bytes can never poison later resumes."""
    try:
        quarantine_dir().mkdir(parents=True, exist_ok=True)
        dest = quarantine_dir() / path.name
        serial = 0
        while dest.exists():
            serial += 1
            dest = (quarantine_dir()
                    / f"{path.stem}.{os.getpid()}.{serial}{path.suffix}")
        os.replace(path, dest)
        COUNTERS["quarantined"] += 1
        return dest
    except OSError:
        try:
            path.unlink()
            COUNTERS["quarantined"] += 1
        except OSError:
            pass
        return None


# ----------------------------------------------------------------------
# Store / load / discard
# ----------------------------------------------------------------------

def store(key: tuple, access_index: int, state: dict) -> bool:
    """Atomically persist the state reached *after* ``access_index``.

    The body is flushed and fsynced before the rename: a crash at any
    instant leaves either the previous snapshot or this one, never a mix.
    Returns False when the snapshot directory is unwritable (the run
    simply continues unprotected).
    """
    path = snapshot_path(key)
    body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": SNAPSHOT_VERSION,
        "salt": _salt(),
        "key": repr(key),
        "access_index": access_index,
        "length": len(body),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    data = MAGIC + json.dumps(header).encode() + b"\n" + body
    try:
        iofaults.publish_bytes("snapshot", path, data)
    except OSError:
        return False
    COUNTERS["stores"] += 1
    return True


#: Upper bound on a snapshot header line (magic + JSON + newline);
#: keeps header probes one small read even through the fault shim.
_HEADER_READ_LIMIT = 1 << 16


def read_header(path: Path) -> Optional[dict]:
    """Parse and sanity-check a snapshot's header line (not the body).

    Goes through ``iofaults.read_bytes`` (site ``snapshot.read``) so a
    torn or partially-read header under ``REPRO_IO_FAULTS`` degrades to
    ``None`` — the progress path reports "no progress yet" instead of
    crashing or trusting doubtful bytes.
    """
    try:
        raw = iofaults.read_bytes("snapshot.read", path,
                                  limit=_HEADER_READ_LIMIT)
    except OSError:
        return None
    if not raw.startswith(MAGIC):
        return None
    newline = raw.find(b"\n", len(MAGIC))
    if newline < 0:
        return None
    try:
        header = json.loads(raw[len(MAGIC):newline].decode())
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(header, dict):
        return None
    return header


def peek(key: tuple) -> Optional[dict]:
    """Header-only progress probe for one run key (no body unpickle).

    Returns the snapshot's header dict (``access_index``, ``length``,
    ...) when a current-version snapshot exists, else ``None``.  This is
    the serving layer's progress path: it costs one small read, never
    deserializes simulator state, and never quarantines — a torn file
    simply reads as "no progress yet".
    """
    path = snapshot_path(key)
    header = read_header(path)
    if (header is None
            or header.get("version") != SNAPSHOT_VERSION
            or header.get("salt") != _salt()
            or not isinstance(header.get("access_index"), int)):
        return None
    return header


def load(key: tuple) -> Optional[Tuple[int, dict]]:
    """Fetch the latest valid snapshot; return (access_index, state).

    Any failure — missing magic, wrong version/salt, short body, checksum
    mismatch, unpicklable payload — quarantines the file and reports a
    miss, so a resume can never start from doubtful state.
    """
    path = snapshot_path(key)
    if not path.exists():
        COUNTERS["misses"] += 1
        return None
    header = read_header(path)
    if (header is None
            or header.get("version") != SNAPSHOT_VERSION
            or header.get("salt") != _salt()
            or not isinstance(header.get("access_index"), int)
            or not isinstance(header.get("length"), int)):
        _quarantine(path)
        COUNTERS["misses"] += 1
        return None
    try:
        raw = iofaults.read_bytes("snapshot.read", path)
        newline = raw.index(b"\n", len(MAGIC))
        body = raw[newline + 1:]
        if (len(body) != header["length"]
                or hashlib.sha256(body).hexdigest() != header.get("sha256")):
            raise ValueError("snapshot body failed validation")
        state = pickle.loads(body)
        if not isinstance(state, dict):
            raise ValueError("snapshot payload is not a state dict")
    except (OSError, ValueError, TypeError, KeyError, EOFError,
            pickle.UnpicklingError, AttributeError, ImportError,
            IndexError, MemoryError):
        _quarantine(path)
        COUNTERS["misses"] += 1
        return None
    COUNTERS["loads"] += 1
    return header["access_index"], state


def discard(key: tuple) -> bool:
    """Remove a run's snapshot (called when the run completes)."""
    try:
        snapshot_path(key).unlink()
    except OSError:
        return False
    COUNTERS["discards"] += 1
    return True


# ----------------------------------------------------------------------
# Maintenance (powers the `repro snapshot` CLI subcommand)
# ----------------------------------------------------------------------

@dataclass
class SnapshotEntry:
    """Metadata of one on-disk snapshot (for ``repro snapshot list``)."""

    path: Path
    size_bytes: int = 0
    access_index: int = -1
    key: str = "?"
    current: bool = False   # snapshot salt matches the running code version


@dataclass
class SnapshotStats:
    """Summary of the snapshot directory state."""

    directory: Path
    entries: int = 0
    total_bytes: int = 0

    def describe(self) -> str:
        size_kb = self.total_bytes / 1024
        every = snapshot_every()
        state = (f"enabled (every {every} accesses)" if every
                 else "disabled (REPRO_SNAPSHOT_EVERY unset)")
        return (f"snapshot dir : {self.directory}\n"
                f"state        : {state}\n"
                f"snapshots    : {self.entries}\n"
                f"size         : {size_kb:.1f} KiB\n"
                f"version      : {_salt()}")


def list_entries() -> "list[SnapshotEntry]":
    """Enumerate every snapshot, newest first; unreadable ones skipped."""
    objects = snapshot_dir() / "objects"
    entries: "list[SnapshotEntry]" = []
    if not objects.is_dir():
        return entries
    stamped = []
    for path in objects.glob("*/*.snap"):
        try:
            stat_result = path.stat()
        except OSError:
            continue
        header = read_header(path)
        if header is None:
            header = {}
        entry = SnapshotEntry(
            path=path, size_bytes=stat_result.st_size,
            access_index=header.get("access_index", -1),
            key=str(header.get("key", "?")),
            current=header.get("salt") == _salt())
        stamped.append((stat_result.st_mtime, entry))
    stamped.sort(key=lambda pair: pair[0], reverse=True)
    return [entry for _, entry in stamped]


def stats() -> SnapshotStats:
    result = SnapshotStats(directory=snapshot_dir())
    objects = snapshot_dir() / "objects"
    if not objects.is_dir():
        return result
    for path in objects.glob("*/*.snap"):
        try:
            result.total_bytes += path.stat().st_size
            result.entries += 1
        except OSError:
            continue
    return result


def prune(all_entries: bool = False) -> int:
    """Remove leftover snapshots; returns the number removed.

    By default only snapshots whose salt no longer matches the running
    code (unresumable) are removed; ``all_entries=True`` sweeps everything
    — safe because snapshots only ever save re-computable work.
    """
    objects = snapshot_dir() / "objects"
    removed = 0
    if not objects.is_dir():
        return removed
    for path in objects.glob("*/*.snap"):
        header = read_header(path)
        stale = header is None or header.get("salt") != _salt()
        if not (all_entries or stale):
            continue
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


def reset_counters() -> None:
    """Zero the per-process counters (test isolation helper)."""
    for name in COUNTERS:
        COUNTERS[name] = 0
