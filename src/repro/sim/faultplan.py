"""One fault-spec core for the three deterministic fault planes.

``REPRO_FAULTS`` (:mod:`repro.sim.faults`, the batch engine),
``REPRO_IO_FAULTS`` (:mod:`repro.sim.iofaults`, the storage layer) and
``REPRO_NET_FAULTS`` (:mod:`repro.serve.netfaults`, the transport) speak
one spec language, parsed, sampled and armed here.  Each of those
modules declares one :class:`Plane` (its kinds and the op suffixes each
fires at, its ``key=value`` parameters, its error class) and keeps only
its exception types and seam functions.

Grammar::

    spec    := clause (";" clause)*
    clause  := kind target? (":" key "=" value)*
    target  := "@" idx ("+" idx)*     explicit 0-based indices
             | "~" count "/" seed     seeded sample

``REPRO_FAULTS`` requires a target (its indices are positions in a
batch's scheduled run list).  The IO and network planes index each
site's operation sequence, read a bare kind as "every op", and share
the parameters ``site=<dotted prefix>`` (``cache`` matches
``cache.write`` but not ``cachette.write``), ``secs=<float>`` (stall,
default 0.01) and ``of=<int>`` (the seeded-sample window, default 16
ops per site).

**Sampling.**  ``~count/seed`` draws ``count`` distinct indices from
``range(population)`` with ``random.Random(seed ^ crc32(site))``.  The
batch plane passes no site, which is exactly ``random.Random(seed)``;
the per-site planes mix the site in, so two sites fail at different
offsets, deterministically across processes and replays.

**Arming.**  A per-site plane reads its variable lazily on the first
hook call (so pool workers and daemon subprocesses inherit it), or is
armed explicitly with :meth:`Plane.arm` in tests.  Each site counts its
own operations and clause targets index into that count, so a replay
of the same workload fires the same faults at the same operations.
While disarmed, ``plane.plan`` is None and a hook costs one ``None``
check.  A malformed spec raises the plane's :class:`SpecError`, a
``ConfigurationError``: an operator mistake, not a simulation failure
(the CLI prints it and exits 2).
"""

from __future__ import annotations

import os
import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.config import ConfigurationError

#: Default window for seeded "~count/seed" sampling (ops per site).
DEFAULT_WINDOW = 16


class SpecError(ConfigurationError):
    """A fault spec failed to parse (each plane raises a subclass)."""


def sample(seed: int, count: int, population: int,
           site: str = "") -> List[int]:
    """The seeded ``~count/seed`` draw from ``range(population)``."""
    rng = random.Random(seed ^ zlib.crc32(site.encode()))
    return rng.sample(range(population), min(count, population))


@dataclass(frozen=True)
class Clause:
    """One parsed clause of a per-site plane (IO or network)."""

    kind: str
    ops: Tuple[str, ...] = field(default=(), repr=False, compare=False)
    site: str = ""                              # dotted prefix filter
    indices: Optional[Tuple[int, ...]] = None   # explicit "@" targets
    count: int = 0                              # seeded "~" sample size
    seed: int = 0
    window: int = DEFAULT_WINDOW
    secs: float = 0.01                          # stall duration

    def matches_site(self, site: str) -> bool:
        if not self.site:
            return True
        return site == self.site or site.startswith(self.site + ".")

    def fires(self, site: str, index: int) -> bool:
        """Does this clause fire for op *index* of *site*?"""
        if (site.rsplit(".", 1)[-1] not in self.ops
                or not self.matches_site(site)):
            return False
        if self.indices is not None:
            return index in self.indices
        if self.count:
            return index in sample(self.seed, self.count, self.window, site)
        return True                              # bare kind: every op


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise ValueError(value)
    return number


#: The per-site planes' parameters: key -> (clause field, converter).
_SITE_PARAMS = {"site": ("site", str), "secs": ("secs", float),
                "of": ("window", _positive_int)}

_UNREAD = object()


class Plane:
    """One fault variable: its spec language, arming and site counters.

    *kinds* maps each kind to the op suffixes it fires at; *params* maps
    each ``key=`` to its clause field and converter; *make* builds a
    clause from a kind and its fields (default: a :class:`Clause`) and
    may reject a combination by raising ``ValueError``.
    """

    def __init__(self, env_var: str, kinds: Dict[str, Tuple[str, ...]],
                 error: type, params: Dict[str, tuple] = _SITE_PARAMS,
                 target_required: bool = False,
                 make: Optional[Callable[..., object]] = None) -> None:
        self.env_var = env_var
        self.kinds = kinds
        self.error = error
        self.params = params
        self.target_required = target_required
        self.make = make or self._clause
        #: _UNREAD until the first hook reads the environment, None
        #: when disabled, else the clause list.
        self.plan = _UNREAD
        #: Per-site operation counters (deterministic sequencing).
        self.counters: Dict[str, int] = {}

    # -- parsing --------------------------------------------------------

    def _clause(self, kind: str, **fields) -> Clause:
        return Clause(kind, self.kinds[kind], **fields)

    def _error(self, text: str, problem: str) -> SpecError:
        return self.error(f"{self.env_var} clause {text!r}: {problem}")

    def _parse_clause(self, text: str):
        head, *raw_params = text.split(":")
        fields: Dict[str, object] = {}
        for item in raw_params:
            key, sep, value = item.partition("=")
            if not sep or not value:
                raise self._error(text, f"malformed parameter {item!r}")
            if key not in self.params:
                expected = ", ".join(f"{name}=" for name in self.params)
                raise self._error(text, f"unknown parameter {key!r} "
                                        f"(expected {expected})")
            name, convert = self.params[key]
            try:
                fields[name] = convert(value)
            except ValueError:
                raise self._error(text, f"bad value for {key!r}: "
                                        f"{value!r}") from None

        if "@" in head and "~" in head:
            raise self._error(text, "use @idx or ~count/seed, not both")
        if "@" in head:
            kind, _, target = head.partition("@")
            try:
                indices = tuple(int(part) for part in target.split("+"))
            except ValueError:
                raise self._error(text, f"bad index in {target!r}") \
                    from None
            if any(i < 0 for i in indices):
                raise self._error(text, "negative index")
            fields["indices"] = indices
        elif "~" in head:
            kind, _, target = head.partition("~")
            count, sep, seed = target.partition("/")
            if not sep or not count or not seed:
                raise self._error(text, "seeded target must be count/seed")
            try:
                fields["count"], fields["seed"] = int(count), int(seed)
            except ValueError:
                raise self._error(text, f"bad count/seed {target!r}") \
                    from None
            if fields["count"] < 0:
                raise self._error(text, "negative count")
        elif self.target_required:
            raise self._error(text, "expected kind@idx[+idx...] or "
                                    "kind~count/seed")
        else:
            kind = head
        if kind not in self.kinds:
            raise self._error(text, f"unknown kind {kind!r} (expected one "
                                    f"of {', '.join(self.kinds)})")
        try:
            return self.make(kind, **fields)
        except ValueError as exc:
            raise self._error(text, str(exc)) from None

    def parse(self, spec: str) -> list:
        """Parse a spec string (raises this plane's :class:`SpecError`)."""
        return [self._parse_clause(part.strip())
                for part in spec.split(";") if part.strip()]

    def from_env(self) -> Optional[list]:
        """The clauses armed via the variable, or None when unset."""
        spec = os.environ.get(self.env_var, "").strip()
        return self.parse(spec) if spec else None

    # -- arming ---------------------------------------------------------

    def arm(self, spec: str) -> list:
        """Arm a fault plan for this process (tests; resets sequencing)."""
        self.plan = self.parse(spec)
        self.counters.clear()
        return self.plan

    def disarm(self) -> None:
        """Disable injection and forget the cached environment read."""
        self.plan = _UNREAD
        self.counters.clear()

    def reset_counters(self) -> None:
        """Zero the per-site op counters (test isolation helper)."""
        self.counters.clear()

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Inject nothing inside the block, then restore the previous
        arming, including a plan not yet read from the environment."""
        saved, self.plan = self.plan, None
        try:
            yield
        finally:
            self.plan = saved

    def fire(self, site: str) -> list:
        """Advance *site*'s op counter; return the clauses firing on it."""
        if self.plan is _UNREAD:
            self.plan = self.from_env()
            self.counters.clear()
        if self.plan is None:
            return []
        index = self.counters.get(site, 0)
        self.counters[site] = index + 1
        return [clause for clause in self.plan
                if clause.fires(site, index)]
