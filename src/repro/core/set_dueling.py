"""Set-Dueling selection logic for the composite PSA prefetcher.

Section IV-B2/3 of the paper, adapted from Qureshi et al.'s cache-insertion
Set Dueling [73]:

- 32 L2C *leader sets* are dedicated to Pref-PSA and 32 to Pref-PSA-2MB;
  accesses mapping to a leader set always use that leader's prefetcher.
- All other (*follower*) sets consult a single ``csel_bits``-bit saturating
  counter ``Csel``: MSB 0 selects Pref-PSA, MSB 1 selects Pref-PSA-2MB.
- ``Csel`` is updated on cache hits to prefetched blocks, using the
  per-block annotation bit to attribute the hit: a useful Pref-PSA
  prefetch decrements, a useful Pref-PSA-2MB prefetch increments.  (The
  annotation bit is required because, unlike replacement-policy dueling,
  the prefetched block may land in a different set than the trigger.)
"""

from __future__ import annotations

from repro.prefetch.base import ISSUER_PSA, ISSUER_PSA_2MB
from repro.sim.config import DuelingConfig
from repro.verify import invariants

ROLE_FOLLOWER = "follower"
ROLE_PSA_LEADER = "psa-leader"
ROLE_PSA_2MB_LEADER = "psa-2mb-leader"

_LEADER_ISSUER = {ROLE_PSA_LEADER: ISSUER_PSA,
                  ROLE_PSA_2MB_LEADER: ISSUER_PSA_2MB}


class SetDuelingSelector:
    """Leader-set assignment plus the Csel saturating counter."""

    def __init__(self, num_sets: int, config: DuelingConfig) -> None:
        if num_sets < 2 * config.leader_sets:
            raise ValueError(
                f"{num_sets} sets cannot host 2x{config.leader_sets} leaders")
        self.num_sets = num_sets
        self.config = config
        self.csel_max = (1 << config.csel_bits) - 1
        self._msb = 1 << (config.csel_bits - 1)
        self.csel = 0   # start in the conservative (Pref-PSA) half
        # Leader sets are chosen by a bijective hash of the set index so
        # that strided access patterns cannot systematically align with
        # (or dodge) the sample sets — a plain modulo-phase assignment is
        # defeated by power-of-two strides.
        if num_sets & (num_sets - 1):
            raise ValueError("set count must be a power of two (hash bijectivity)")
        self._hash_mult = 2654435761  # odd => bijective modulo 2^k
        self._hash_mask = num_sets - 1
        self._leader_sets = config.leader_sets
        # Statistics
        self.updates_psa = 0
        self.updates_psa_2mb = 0
        self.follower_selects_psa = 0
        self.follower_selects_psa_2mb = 0
        self._check = invariants.enabled()
        # Roles are frozen at construction: the issuer each leader set
        # always uses, or None for a follower (which consults Csel).
        self._leader_issuer = tuple(_LEADER_ISSUER.get(self.role_of_set(s))
                                    for s in range(num_sets))
        if self._check:
            # The hash must yield exactly leader_sets sets per prefetcher.
            psa, psa2m = self.leader_counts()
            if psa != self._leader_sets or psa2m != self._leader_sets:
                invariants.violated(
                    f"Set-Dueling: leader hash assigned {psa}/{psa2m} "
                    f"leader sets, expected {self._leader_sets} each")

    # ------------------------------------------------------------------
    def role_of_set(self, set_index: int) -> str:
        hashed = (set_index * self._hash_mult) & self._hash_mask
        if hashed < self._leader_sets:
            return ROLE_PSA_LEADER
        if hashed < 2 * self._leader_sets:
            return ROLE_PSA_2MB_LEADER
        return ROLE_FOLLOWER

    def leader_counts(self) -> tuple:
        """(psa leaders, psa-2mb leaders) — should be 32/32 at defaults."""
        return (self._leader_issuer.count(ISSUER_PSA),
                self._leader_issuer.count(ISSUER_PSA_2MB))

    # ------------------------------------------------------------------
    def selected_for(self, set_index: int) -> int:
        """Issuer that must generate prefetches for this access's set."""
        leader = self._leader_issuer[set_index]
        if leader is not None:
            return leader
        if self.csel & self._msb:
            self.follower_selects_psa_2mb += 1
            return ISSUER_PSA_2MB
        self.follower_selects_psa += 1
        return ISSUER_PSA

    def on_useful(self, issuer: int) -> None:
        """Attribute a useful prefetch via its annotation bit."""
        if issuer == ISSUER_PSA:
            if self.csel > 0:
                self.csel -= 1
            self.updates_psa += 1
        elif issuer == ISSUER_PSA_2MB:
            if self.csel < self.csel_max:
                self.csel += 1
            self.updates_psa_2mb += 1
        if self._check and not 0 <= self.csel <= self.csel_max:
            invariants.violated(
                f"Set-Dueling: Csel {self.csel} escaped its saturating "
                f"range [0, {self.csel_max}]")

    def annotation_storage_bits(self, l2c_blocks: int) -> int:
        """One annotation bit per L2C block (1KB for a 512KB L2C)."""
        return l2c_blocks
