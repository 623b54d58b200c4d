"""TTL records: files whose mtime is their owner's liveness signal.

Campaign claim leases (``repro.campaign.worker``) and cluster member
records (``repro.serve.cluster``) are files in the shared cache dir that
a live owner keeps fresh and anyone may remove once it stopped.  The
worker, the cluster and ``repro doctor`` share these rules:

- age is read from the mtime, behind an optional ``REPRO_IO_FAULTS``
  site; an unreadable age is None, and never stale;
- a record is stale once its age exceeds its TTL;
- a stale record is reaped by renaming it to a unique takeover name
  (``<name>.stale.<tag>``), then unlinking that: ``os.replace`` is
  atomic, so of concurrent reapers exactly one wins;
- a record is classified with its owner's parser, and bytes the parser
  rejects (ValueError, KeyError, TypeError) make it ``corrupt``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, NamedTuple, Optional

from repro.sim import iofaults

#: Infix of a takeover name; one left behind is a crashed reaper's.
TAKEOVER = ".stale."


def age_s(path: Path, site: Optional[str] = None) -> Optional[float]:
    """Seconds since *path* was last written, or None when unreadable."""
    try:
        if site is not None:
            iofaults.check(site)
        return max(0.0, time.time() - path.stat().st_mtime)
    except OSError:
        return None


def reap(path: Path, tag: str) -> bool:
    """Remove *path* through its takeover name; True when this caller
    won (False: another reaper won, or the owner removed it first)."""
    takeover = path.with_name(f"{path.name}{TAKEOVER}{tag}")
    try:
        os.replace(path, takeover)
    except OSError:
        return False
    try:
        takeover.unlink()
    except OSError:
        pass
    return True


class Record(NamedTuple):
    """One record, classified."""

    path: Path
    status: str             # ok | stale | corrupt
    age_s: float
    value: Any = None       # what the owner's parser returned
    detail: str = ""


def classify(path: Path, ttl_s: float,
             parse: Optional[Callable[[bytes], Any]] = None,
             site: Optional[str] = None) -> Optional[Record]:
    """Classify one record; None when it is gone or its age unreadable."""
    age = age_s(path, site)
    if age is None:
        return None
    try:
        value = parse(path.read_bytes()) if parse is not None else None
    except OSError:
        return None
    except (ValueError, KeyError, TypeError) as exc:
        return Record(path, "corrupt", age,
                      detail=f"unparseable record: {exc}")
    if age > ttl_s:
        return Record(path, "stale", age, value,
                      f"age {age:.0f}s > ttl {ttl_s:.0f}s")
    return Record(path, "ok", age, value)


@dataclass(frozen=True)
class RecordSet:
    """Where one owner's records live and how that owner reads them."""

    root: Path
    pattern: str                       # glob of live records under root
    ttl_s: float
    parse: Optional[Callable[[bytes], Any]] = None
    site: Optional[str] = None         # iofaults site of the age read

    def scan(self) -> List[Record]:
        """Every record still present, classified, in path order."""
        found = (classify(path, self.ttl_s, self.parse, self.site)
                 for path in sorted(self.root.glob(self.pattern)))
        return [record for record in found if record is not None]

    def tombstones(self) -> List[Path]:
        """Takeover names a crashed reaper left behind."""
        return sorted(self.root.glob(f"{self.pattern}{TAKEOVER}*"))
