"""Replacement policies for set-associative structures.

The paper's configuration uses LRU at every cache level, so LRU is the
default everywhere; the policy interface exists so tests and ablations can
swap in alternatives (random, FIFO, RRIP) without touching the cache code.

LRU and FIFO keep their order in the cache set itself, a dict: a fill
appends the tag, the victim is the set's first key, and LRU moves a hit
to the end.  They hold no state, so one instance serves every set of a
cache.  The other policies keep per-set state: the cache stores one
policy object per set and calls ``on_hit`` / ``on_fill`` / ``on_evict``
/ ``victim``.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List


class LRUPolicy:
    """Least-recently-used order, kept as the cache set's dict order."""

    __slots__ = ()

    @staticmethod
    def on_hit(cache_set: dict, tag: Hashable) -> None:
        cache_set[tag] = cache_set.pop(tag)

    @staticmethod
    def victim(cache_set: dict) -> Hashable:
        return next(iter(cache_set))


class FIFOPolicy(LRUPolicy):
    """First-in-first-out: like LRU but hits do not refresh recency."""

    __slots__ = ()

    @staticmethod
    def on_hit(cache_set: dict, tag: Hashable) -> None:  # noqa: D102
        pass


class RandomPolicy:
    """Uniform random victim selection (deterministic via seed)."""

    __slots__ = ("_tags", "_rng")

    def __init__(self, seed: int = 0) -> None:
        self._tags: List[Hashable] = []
        self._rng = random.Random(seed)

    def on_hit(self, tag: Hashable) -> None:
        pass

    def on_fill(self, tag: Hashable) -> None:
        self._tags.append(tag)

    def on_evict(self, tag: Hashable) -> None:
        self._tags.remove(tag)

    def victim(self) -> Hashable:
        return self._rng.choice(self._tags)


class SRRIPPolicy:
    """Static Re-Reference Interval Prediction (Jaleel et al., ISCA 2010).

    Each line carries a 2-bit re-reference prediction value (RRPV): long
    re-reference on insertion (RRPV = max-1), near-immediate on hit
    (RRPV = 0).  The victim is any line with RRPV = max; if none exists,
    all RRPVs age until one does.  Scan-resistant, widely used at L2/LLC.
    """

    __slots__ = ("_rrpv", "max_rrpv")

    def __init__(self, rrpv_bits: int = 2) -> None:
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._rrpv: Dict[Hashable, int] = {}

    def on_hit(self, tag: Hashable) -> None:
        self._rrpv[tag] = 0

    def on_fill(self, tag: Hashable) -> None:
        self._rrpv[tag] = self.max_rrpv - 1

    def on_evict(self, tag: Hashable) -> None:
        self._rrpv.pop(tag, None)

    def victim(self) -> Hashable:
        while True:
            for tag, rrpv in self._rrpv.items():
                if rrpv >= self.max_rrpv:
                    return tag
            for tag in self._rrpv:
                self._rrpv[tag] += 1


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: inserts at max RRPV most of the time (thrash
    protection), occasionally at max-1.  DRRIP's second component."""

    __slots__ = ("_counter",)

    LONG_INSERT_PERIOD = 32   # 1 in 32 insertions gets the SRRIP treatment

    def __init__(self, rrpv_bits: int = 2) -> None:
        super().__init__(rrpv_bits)
        self._counter = 0

    def on_fill(self, tag: Hashable) -> None:
        self._counter = (self._counter + 1) % self.LONG_INSERT_PERIOD
        if self._counter == 0:
            self._rrpv[tag] = self.max_rrpv - 1
        else:
            self._rrpv[tag] = self.max_rrpv


POLICIES = {"lru": LRUPolicy, "fifo": FIFOPolicy, "random": RandomPolicy,
            "srrip": SRRIPPolicy, "brrip": BRRIPPolicy}


def make_policy(name: str):
    """Instantiate a replacement policy by name (see ``POLICIES``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}; "
                         f"choose from {sorted(POLICIES)}") from None
