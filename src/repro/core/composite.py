"""Pref-PSA-SD: the composite page-size-aware prefetcher (Section IV-B).

Two *identical* prefetcher instances differing only in indexing granularity
— Pref-PSA (4KB regions) and Pref-PSA-2MB (2MB regions) — compete under a
Set-Dueling selector.  Per the paper's findings (Fig. 11):

- ``policy='proposed'``  : **both** prefetchers train on every L2C access;
  only the selected one issues (SD-Proposed, the paper's design);
- ``policy='standard'``  : only the selected prefetcher trains, as in
  classic Set Dueling for replacement policies (SD-Standard — shown to
  underperform due to insufficient training);
- ``policy='page-size'`` : selection is static per access — the 4KB-indexed
  prefetcher for blocks in 4KB pages, the 2MB-indexed one for blocks in
  2MB pages (SD-Page-Size — shown to lose to dynamic selection because
  2MB indexing is sometimes worse even for blocks in 2MB pages).

Both component prefetchers receive the same page-size-aware boundary
window (prefetching is always permitted within the page where the trigger
block resides, never beyond — Section IV-B1).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.memory.address import PAGE_SIZE_2M
from repro.core.psa import L2PrefetchModule, PSAPrefetchModule, prefetch_window
from repro.core.set_dueling import SetDuelingSelector
from repro.prefetch.base import (
    ISSUER_PSA,
    ISSUER_PSA_2MB,
    L2Prefetcher,
    PrefetchRequest,
)
from repro.sim.config import DuelingConfig

POLICIES = ("proposed", "standard", "page-size")

#: ``factory(region_bits) -> L2Prefetcher`` builds one component instance.
PrefetcherFactory = Callable[[int], L2Prefetcher]


class CompositePSAPrefetcher(L2PrefetchModule):
    """Pref-PSA-SD: Pref-PSA vs Pref-PSA-2MB under Set Dueling."""

    def __init__(self, factory: PrefetcherFactory, num_l2_sets: int,
                 config: Optional[DuelingConfig] = None) -> None:
        self.config = config if config is not None else DuelingConfig()
        if self.config.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, "
                             f"got {self.config.policy!r}")
        #: Pref-PSA and Pref-PSA-2MB, two ordinary PSA modules indexed by
        #: their issuer tags.  Feedback goes straight to a member's
        #: prefetcher, so the e2e tracer counts one L2 callback per event.
        self.members = (
            PSAPrefetchModule(factory(12), issuer=ISSUER_PSA),
            PSAPrefetchModule(factory(21), issuer=ISSUER_PSA_2MB))
        self.selector = SetDuelingSelector(num_l2_sets, self.config)
        self.name = f"{self.members[ISSUER_PSA].prefetcher.name}-psa-sd"

    # ------------------------------------------------------------------
    def on_l2_access(self, block: int, ip: int, set_index: int,
                     page_size_bit: Optional[int],
                     true_page_size: int) -> List[PrefetchRequest]:
        policy = self.config.policy
        if policy == "page-size":
            selected = (ISSUER_PSA_2MB if page_size_bit == PAGE_SIZE_2M
                        else ISSUER_PSA)
        else:
            selected = self.selector.selected_for(set_index)
        lo, hi = prefetch_window(block, page_size_bit)
        if policy == "standard":   # only the selected member trains
            return self.members[selected].train(
                block, ip, lo, hi, page_size_bit, true_page_size)
        # Pref-PSA trains first, then Pref-PSA-2MB; the unselected
        # member's requests are dropped.
        psa, psa_2mb = self.members
        emitted = (
            psa.train(block, ip, lo, hi, page_size_bit, true_page_size),
            psa_2mb.train(block, ip, lo, hi, page_size_bit, true_page_size))
        return emitted[selected]

    # ------------------------------------------------------------------
    def on_useful(self, block: int, issuer: int) -> None:
        self.selector.on_useful(issuer)
        if issuer == ISSUER_PSA or issuer == ISSUER_PSA_2MB:
            self.members[issuer].prefetcher.on_prefetch_useful(block)

    def on_evicted_unused(self, block: int, issuer: int) -> None:
        if issuer == ISSUER_PSA or issuer == ISSUER_PSA_2MB:
            self.members[issuer].prefetcher.on_prefetch_evicted_unused(block)

    def on_demand_miss(self, block: int) -> None:
        for member in self.members:
            member.prefetcher.on_demand_miss(block)

    # ------------------------------------------------------------------
    def selection_fractions(self) -> tuple:
        """(fraction follower accesses to PSA, to PSA-2MB) — diagnostics."""
        total = (self.selector.follower_selects_psa
                 + self.selector.follower_selects_psa_2mb)
        if not total:
            return 0.0, 0.0
        return (self.selector.follower_selects_psa / total,
                self.selector.follower_selects_psa_2mb / total)

    def storage_bits(self) -> int:
        return (sum(member.storage_bits() for member in self.members)
                + self.config.csel_bits)

    def reset_stats(self) -> None:
        """Zero statistics at the measurement boundary (Csel survives)."""
        for member in self.members:
            member.reset_stats()
