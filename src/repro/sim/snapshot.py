"""Crash-consistent mid-run snapshots for individual simulations.

A long simulation that dies (crash, SIGKILL, timeout) loses all progress;
the supervisor restarts it from access zero.  This module lets a run
checkpoint its *complete* simulation state — the pickled ``Core``, from
which the caches with replacement and MSHR state, prefetcher tables,
PPM/set-dueling counters, TLBs, page table and allocator are all
reachable — every ``REPRO_SNAPSHOT_EVERY`` accesses, so a retried attempt
resumes mid-trace and finishes **bitwise identical** to an uninterrupted
run.  The store itself pickles whatever payload it is given.

Layout (under ``REPRO_SNAPSHOT_DIR`` or ``<cache dir>/snapshots``)::

    objects/<2-hex fan-out>/<sha256 of salted run key>.snap

One file per run key, overwritten in place as the run advances.  The file
is a one-line JSON header (version, code-version salt, run key repr, the
access index the snapshot was taken after, body length and sha256) followed
by the pickled payload.  Guarantees, mirroring ``repro.sim.cache``:

- **Atomic writes**: temp file in the same directory, flushed and fsynced,
  then ``os.replace``d — a crash mid-store can never expose a torn
  snapshot, only the previous intact one.
- **Corruption tolerance**: a snapshot failing any header, length or
  checksum validation is quarantined to ``<snapshot dir>/quarantine/``
  (never an exception, never a silent delete) and treated as absent — the
  run restarts from scratch.
- **Versioned invalidation**: the key digest and header are salted with
  ``CACHE_VERSION``/``CODE_VERSION``, ``SNAPSHOT_VERSION`` and a sha256 of
  the package's own source (``source_digest``).  A pickled object carries
  the attributes of the code that wrote it, so snapshots from other code
  are never resumed.

Snapshots are *transient*: ``discard`` removes a run's snapshot once it
completes, and ``prune`` (``repro snapshot prune``) sweeps leftovers from
runs that never finished.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.sim import iofaults
from repro.sim.cache import (CACHE_VERSION, CODE_VERSION, ObjectTree,
                             cache_dir, quarantine_into)
from repro.sim.config import env_int

MAGIC = b"repro-snapshot\n"

#: Snapshot format version: bump when the header or payload shape changes.
SNAPSHOT_VERSION = 2

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


@functools.cache
def source_digest() -> str:
    """sha256 over every module of the ``repro`` package (once per process)."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _salt() -> str:
    return (f"{CACHE_VERSION}:{CODE_VERSION}:{SNAPSHOT_VERSION}:"
            f"{source_digest()}")


def key_digest(key: tuple) -> str:
    """Content address of one run key, salted by the code version."""
    return hashlib.sha256(repr((_salt(), key)).encode()).hexdigest()


def snapshot_path(key: tuple) -> Path:
    digest = key_digest(key)
    return snapshot_dir() / "objects" / digest[:2] / f"{digest[2:]}.snap"


def quarantine_dir() -> Path:
    return OBJECTS.quarantine


def _quarantine(path: Path) -> Optional[Path]:
    """Move a bad snapshot aside so it can never poison later resumes."""
    COUNTERS["quarantined"] += 1
    return quarantine_into(quarantine_dir(), path)


# ----------------------------------------------------------------------
# Store / load / discard
# ----------------------------------------------------------------------

def store(key: tuple, access_index: int, payload: Any) -> bool:
    """Atomically persist the state reached *after* ``access_index``.

    The body is flushed and fsynced before the rename: a crash at any
    instant leaves either the previous snapshot or this one, never a mix.
    Returns False when the snapshot directory is unwritable (the run
    simply continues unprotected).
    """
    path = snapshot_path(key)
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
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


def check(path: Path, header_only: bool = False
          ) -> Tuple[str, Optional[dict], bytes]:
    """The one definition of a valid snapshot: ``(status, header, body)``.

    *status* is ``ok``, ``stale`` (other version or code salt) or
    ``corrupt`` (unreadable, torn, failing the header, length or sha256
    check); *header* is None when it does not parse.  *header_only*
    reads just the header line (through site ``snapshot.read``, like
    every read here) and skips the body checks.
    """
    try:
        raw = iofaults.read_bytes(
            "snapshot.read", path,
            limit=_HEADER_READ_LIMIT if header_only else None)
    except OSError:
        return "corrupt", None, b""
    newline = raw.find(b"\n", len(MAGIC)) if raw.startswith(MAGIC) else -1
    try:
        header = (json.loads(raw[len(MAGIC):newline].decode())
                  if newline >= 0 else None)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        return "corrupt", None, b""
    if (header.get("version") != SNAPSHOT_VERSION
            or header.get("salt") != _salt()):
        return "stale", header, b""
    if (not isinstance(header.get("access_index"), int)
            or not isinstance(header.get("length"), int)):
        return "corrupt", header, b""
    if header_only:
        return "ok", header, b""
    body = raw[newline + 1:]
    if (len(body) != header["length"]
            or hashlib.sha256(body).hexdigest() != header.get("sha256")):
        return "corrupt", header, body
    return "ok", header, body


def peek(key: tuple) -> Optional[dict]:
    """Header of the run's current-version snapshot, else ``None``.

    The serving layer's progress path: one small read, no unpickling,
    no quarantine — a torn file simply reads as "no progress yet".
    """
    status, header, _ = check(snapshot_path(key), header_only=True)
    return header if status == "ok" else None


def load(key: tuple) -> Optional[Tuple[int, Any]]:
    """Fetch the latest valid snapshot; return (access_index, payload).

    A file :func:`check` does not pass (even a wrong salt at this key's
    own path) or an unpicklable payload is quarantined and reported as
    a miss, so a resume can never start from doubtful state.
    """
    path = snapshot_path(key)
    if not path.exists():
        COUNTERS["misses"] += 1
        return None
    status, header, body = check(path)
    try:
        if status != "ok":
            raise ValueError(f"{status} snapshot")
        payload = pickle.loads(body)
    except (ValueError, TypeError, KeyError, EOFError,
            pickle.UnpicklingError, AttributeError, ImportError,
            IndexError, MemoryError):
        _quarantine(path)
        COUNTERS["misses"] += 1
        return None
    COUNTERS["loads"] += 1
    return header["access_index"], payload


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


#: The snapshot store: a stale snapshot is only unresumable,
#: re-computable state, so it is unlinked rather than quarantined.
OBJECTS = ObjectTree(snapshot_dir, ".snap", lambda path: check(path)[0],
                     quarantine_stale=False)


def list_entries() -> "list[SnapshotEntry]":
    """Enumerate every snapshot, newest first (header-only reads)."""
    entries = []
    for path, stat_result in OBJECTS.files():
        status, header, _ = check(path, header_only=True)
        header = header or {}
        entries.append(SnapshotEntry(
            path=path, size_bytes=stat_result.st_size,
            access_index=header.get("access_index", -1),
            key=str(header.get("key", "?")), current=status == "ok"))
    return entries


def stats() -> SnapshotStats:
    files = OBJECTS.files()
    return SnapshotStats(directory=snapshot_dir(), entries=len(files),
                         total_bytes=sum(st.st_size for _, st in files))


def prune(all_entries: bool = False) -> int:
    """Remove leftover snapshots; returns the number of files removed.

    By default this is ``repro doctor``'s snapshot layer: stale
    (unresumable) snapshots and aged writer temp files are unlinked,
    corrupt snapshots are quarantined.  ``all_entries=True`` sweeps
    every file — safe because snapshots only ever save re-computable
    work.
    """
    if all_entries:
        return OBJECTS.remove_all()
    from repro.sim import doctor

    report = doctor.diagnose(repair=True, layers=("snapshot",))
    return sum(finding.repaired for finding in report.findings)


def reset_counters() -> None:
    """Zero the per-process counters (test isolation helper)."""
    for name in COUNTERS:
        COUNTERS[name] = 0
