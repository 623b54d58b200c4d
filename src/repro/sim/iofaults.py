"""Deterministic IO fault injection for the storage layer.

``repro.sim.faults`` proves the *engine* degrades instead of dying; this
module gives the same adversarial treatment to the durable state every
layer depends on — the content-addressed run cache, the snapshot store,
the campaign sqlite store and the cluster member records.

Every write/fsync/rename/read on those paths goes through the hooks
below (:func:`write`, :func:`fsync`, :func:`replace`, :func:`read_bytes`,
:func:`fsync_dir`, :func:`check`, and the composed
:func:`publish_bytes`).  When no fault plan is armed each hook is a
single ``None`` check in front of the real ``os`` call — the disabled
overhead is bench-asserted ≤ 2% (``benchmarks/bench_iofaults.py``).

``REPRO_IO_FAULTS`` says which storage *operations* fail and how, in
the spec language of :mod:`repro.sim.faultplan` (grammar, seeded
sampling, the ``site=``/``secs=``/``of=`` parameters, lazy arming and
per-site sequencing)::

    REPRO_IO_FAULTS="enospc@3:site=cache"      # 4th cache write op
    REPRO_IO_FAULTS="torn~2/7"                 # 2 seeded torn writes
    REPRO_IO_FAULTS="eio:site=store"           # every sqlite op
    REPRO_IO_FAULTS="fsync-lost@0:site=snapshot;slow:secs=0.01"

**Sites** are dotted ``<layer>.<op>`` names (layers ``cache``,
``snapshot``, ``store``, ``member``); the op suffix decides
which kinds can fire there:

    ========== =====================================================
    op          kinds that apply
    ========== =====================================================
    write       enospc, torn, eio, slow
    fsync       fsync-lost, eio, slow
    rename      enospc, eio, slow
    dirsync     eio, slow
    read        partial-read, eio, slow
    open        enospc, eio, slow        (sqlite connect)
    commit      enospc, eio, slow        (sqlite transaction)
    ========== =====================================================

Error kinds raise :class:`InjectedIOError` (an ``OSError`` with a real
``errno``) so every caller's existing ``except OSError`` degradation
path is exercised; ``torn`` and ``fsync-lost`` instead *succeed* while
silently losing bytes — the published file is garbled exactly like a
torn write or a power loss after a lost fsync, and must be caught by
the reader-side validation (quarantine), never served.  ``slow`` stalls
for ``secs``.  A malformed spec raises :class:`IOFaultSpecError`.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Set

from repro.sim import faultplan

ENV_VAR = "REPRO_IO_FAULTS"

#: Which fault kinds can fire at which op suffix (see module docstring).
_OPS_FOR_KIND = {
    "enospc": ("write", "rename", "open", "commit"),
    "torn": ("write",),
    "eio": ("write", "fsync", "rename", "dirsync", "read", "open",
            "commit"),
    "fsync-lost": ("fsync",),
    "partial-read": ("read",),
    "slow": ("write", "fsync", "rename", "dirsync", "read", "open",
             "commit"),
}

KINDS = tuple(_OPS_FOR_KIND)


class IOFaultSpecError(faultplan.SpecError):
    """A ``REPRO_IO_FAULTS`` spec failed to parse."""


class InjectedIOError(OSError):
    """An injected storage failure (carries a real errno)."""


PLANE = faultplan.Plane(ENV_VAR, _OPS_FOR_KIND, IOFaultSpecError)

parse = PLANE.parse
plan_from_env = PLANE.from_env
arm = PLANE.arm
disarm = PLANE.disarm
reset_counters = PLANE.reset_counters
suspended = PLANE.suspended


def _inject(site: str) -> Set[str]:
    """Fire *site*'s clauses: stall on ``slow``, raise the error kinds,
    and return the kinds that fired (the silent ones are the caller's)."""
    kinds = set()
    for clause in PLANE.fire(site):
        kinds.add(clause.kind)
        if clause.kind == "slow":
            time.sleep(clause.secs)
        elif clause.kind == "enospc":
            raise InjectedIOError(
                errno.ENOSPC, f"injected ENOSPC at {site}")
        elif clause.kind == "eio":
            raise InjectedIOError(errno.EIO, f"injected EIO at {site}")
    return kinds


# ----------------------------------------------------------------------
# The filesystem shim
# ----------------------------------------------------------------------

def check(site: str) -> None:
    """Generic fault point for ops with no data payload (open/commit)."""
    if PLANE.plan is not None:
        _inject(site)


def write(site: str, handle, data: bytes) -> None:
    """``handle.write(data)`` with enospc/eio/torn/slow injection.

    ``torn`` writes only the first half and then *succeeds* — the
    publish that follows exposes a torn file, exactly like a crashed
    writer on a non-atomic filesystem.
    """
    if PLANE.plan is not None and "torn" in _inject(site):
        data = data[:len(data) // 2]
    handle.write(data)


def fsync(site: str, handle) -> None:
    """``flush + os.fsync`` with fsync-lost/eio/slow injection.

    ``fsync-lost`` models a power loss after a silently-failed fsync:
    the call reports success but the tail of the file never reached the
    platter — implemented by truncating the still-unpublished temp file
    to half, so the subsequent rename publishes a torn entry.
    """
    lost = PLANE.plan is not None and "fsync-lost" in _inject(site)
    handle.flush()
    if lost:
        size = os.fstat(handle.fileno()).st_size
        os.ftruncate(handle.fileno(), size // 2)
        return
    os.fsync(handle.fileno())


def replace(site: str, src, dst) -> None:
    """``os.replace`` with enospc/eio/slow injection."""
    if PLANE.plan is not None:
        _inject(site)
    os.replace(src, dst)


def read_bytes(site: str, path, limit: Optional[int] = None) -> bytes:
    """``Path.read_bytes`` with partial-read/eio/slow injection.

    ``partial-read`` returns only the first half of the bytes — the
    caller's validation must treat it exactly like a torn entry.  With
    *limit*, at most that many leading bytes are read (header-only
    probes stay header-sized even through the shim).
    """
    if not isinstance(path, Path):
        path = Path(path)
    partial = PLANE.plan is not None and "partial-read" in _inject(site)
    if limit is None:
        data = path.read_bytes()
    else:
        with path.open("rb") as handle:
            data = handle.read(limit)
    return data[:len(data) // 2] if partial else data


def fsync_dir(site: str, path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Failures of the *real* dir fsync are swallowed (some filesystems
    refuse O_RDONLY dir fsync); injected eio is raised like any other.
    """
    if PLANE.plan is not None:
        _inject(site)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def publish_bytes(layer: str, path: Path, data: bytes) -> None:
    """The shared temp-fsync-rename-dirsync publish sequence.

    Writes *data* to a fresh temp file beside *path*, fsyncs it,
    atomically renames it over *path*, and fsyncs the parent directory
    — the crash-consistent pattern every durable writer uses, with a
    fault point at each step (``<layer>.write``, ``<layer>.fsync``,
    ``<layer>.rename``, ``<layer>.dirsync``).  Raises ``OSError`` on
    (injected or real) failure, after removing the temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        with open(tmp, "wb") as handle:
            write(f"{layer}.write", handle, data)
            fsync(f"{layer}.fsync", handle)
        replace(f"{layer}.rename", tmp, path)
        fsync_dir(f"{layer}.dirsync", path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
