"""Signature Path Prefetcher (SPP) — Kim et al., MICRO 2016.

The paper's primary underlying prefetcher.  SPP keeps:

- a **Signature Table** indexed by physical page (here: *region*, whose
  granularity is the ``region_bits`` constructor parameter — 4KB for the
  original/PSA versions, 2MB for PSA-2MB), storing the last block offset
  seen in the region and a compressed 12-bit signature of its delta
  history;
- a **Pattern Table** indexed by signature, storing up to four candidate
  deltas with saturating confidence counters.

On each access SPP trains the Pattern Table with the observed delta, then
performs *lookahead*: it repeatedly predicts the most confident next delta,
multiplying per-step confidences into a path confidence, issuing a prefetch
per step until confidence drops below ``PF_THRESHOLD`` or the candidate is
discarded at a page boundary (``ctx.discard``).  Prefetches
whose path confidence exceeds ``FILL_THRESHOLD`` fill the L2C, the rest
fill the LLC — this is the "internal confidence mechanism" the paper
refers to.

SPP's **Global History Register (GHR)** is modelled too: when a lookahead
path runs off the end of its region, the in-flight signature, confidence,
projected entry offset and delta are parked in a small register file.  The
first access to a fresh region probes the GHR — if an entry projected
exactly this offset, the new region's Signature Table entry is seeded with
the parked signature instead of starting cold, and lookahead resumes
immediately.  This is how the original SPP preserves *learning* continuity
across pages even though it may not *prefetch* across them; without it the
original-SPP baseline would be artificially weak and the PSA gains
overstated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.prefetch.base import L2Prefetcher, PrefetchContext
from repro.prefetch.tables import BoundedTable

SIG_BITS = 12
SIG_MASK = (1 << SIG_BITS) - 1
SIG_SHIFT = 3


def next_signature(sig: int, delta: int) -> int:
    """Compress a delta into the running page signature."""
    return ((sig << SIG_SHIFT) ^ (delta & SIG_MASK)) & SIG_MASK


class PatternEntry:
    """One Pattern Table row: up to four deltas with confidence counters.

    ``top`` caches what the lookahead needs from the row: ``best()``'s
    ``(delta, confidence)`` plus the signature that delta leads to.  Every
    ``train`` refreshes it.  Before the first, its confidence is 0.0,
    which ends any lookahead that reaches the row (``best()`` is None).
    """

    __slots__ = ("deltas", "total", "signature", "top")

    MAX_WAYS = 4
    COUNT_CAP = 256

    def __init__(self, signature: int) -> None:
        self.deltas: Dict[int, int] = {}
        self.total = 0
        self.signature = signature
        self.top: Tuple[int, float, int] = (0, 0.0, signature)

    def train(self, delta: int) -> None:
        deltas = self.deltas
        self.total += 1
        if delta in deltas:
            deltas[delta] += 1
        elif len(deltas) < self.MAX_WAYS:
            deltas[delta] = 1
        else:
            victim = min(deltas, key=deltas.__getitem__)
            del deltas[victim]
            deltas[delta] = 1
        if self.total >= self.COUNT_CAP:
            self.total >>= 1
            for d in list(deltas):
                deltas[d] = max(1, deltas[d] >> 1)
        best = max(deltas, key=deltas.__getitem__)   # as best() computes it
        self.top = (best, deltas[best] / self.total,
                    next_signature(self.signature, best))

    def best(self) -> Optional[Tuple[int, float]]:
        """Return (delta, confidence) of the most confident delta."""
        if not self.deltas or not self.total:
            return None
        delta = max(self.deltas, key=self.deltas.__getitem__)
        return delta, self.deltas[delta] / self.total


class GHREntry:
    """One Global History Register entry: a lookahead path parked at a
    region boundary, waiting for the stream to enter the next region."""

    __slots__ = ("signature", "confidence", "entry_offset", "delta")

    def __init__(self, signature: int, confidence: float,
                 entry_offset: int, delta: int) -> None:
        self.signature = signature
        self.confidence = confidence
        self.entry_offset = entry_offset   # projected offset in the new region
        self.delta = delta


class SPP(L2Prefetcher):
    """Signature Path Prefetcher with confidence-based lookahead and GHR."""

    name = "spp"

    ST_ENTRIES = 256
    PT_ENTRIES = 512
    GHR_ENTRIES = 8
    PF_THRESHOLD = 0.25     # stop lookahead below this path confidence
    FILL_THRESHOLD = 0.90   # fill L2C at or above, LLC below
    MAX_DEPTH = 8
    #: Per-step confidence decay.  In the original SPP the path confidence
    #: shrinks every lookahead step because c_delta/c_sig < 1 even for a
    #: perfectly repeating delta; without this decay a fully trained
    #: prefetcher would send arbitrarily deep speculation to the L2C.
    LOOKAHEAD_DAMPING = 0.95
    #: Per-candidate filter, or None to issue every lookahead candidate:
    #: ``vet(ctx, candidate, path_confidence, depth, sig, delta)`` runs
    #: before the window test and returns the fill level (True: L2C), or
    #: None to reject the candidate and walk on (PPF's perceptron).
    vet = None

    def __init__(self, region_bits: int = 12, table_scale: float = 1.0,
                 use_ghr: bool = True) -> None:
        super().__init__(region_bits, table_scale)
        self.signature_table: BoundedTable[Tuple[int, int]] = BoundedTable(
            max(1, int(self.ST_ENTRIES * table_scale)))
        self.pattern_table: BoundedTable[PatternEntry] = BoundedTable(
            max(1, int(self.PT_ENTRIES * table_scale)))
        self.use_ghr = use_ghr
        self.ghr: List[GHREntry] = []
        self.lookahead_depth_total = 0
        self.lookahead_invocations = 0
        self.ghr_seeds = 0

    # ------------------------------------------------------------------
    def _pattern_entry(self, sig: int) -> PatternEntry:
        entry = self.pattern_table.get(sig)
        if entry is None:
            entry = PatternEntry(sig)
            self.pattern_table.put(sig, entry)
        return entry

    def _ghr_record(self, signature: int, confidence: float,
                    cursor: int, delta: int) -> None:
        """Park a boundary-crossing lookahead path in the GHR.

        ``cursor`` is the (out-of-range) offset the path projected; its
        value modulo the region size is where the stream should enter the
        next region.
        """
        if not self.use_ghr:
            return
        entry = GHREntry(signature, confidence,
                         cursor & self.offset_mask, delta)
        self.ghr.append(entry)
        if len(self.ghr) > self.GHR_ENTRIES:
            self.ghr.pop(0)

    def _ghr_probe(self, offset: int) -> Optional[GHREntry]:
        """Match a fresh region's first offset against parked paths."""
        if not self.use_ghr:
            return None
        for entry in reversed(self.ghr):
            if entry.entry_offset == offset:
                return entry
        return None

    # ------------------------------------------------------------------
    def on_access(self, ctx: PrefetchContext) -> None:
        block = ctx.block
        region = block >> self.offset_bits
        offset = block & self.offset_mask
        # One recency update per access: the ``put`` below moves the
        # entry to the end, as a touching ``get`` would have.
        signature_table = self.signature_table
        st_entry = signature_table.get(region, touch=False)
        if st_entry is None:
            parked = self._ghr_probe(offset)
            if parked is not None:
                # Cross-region continuity: resume the parked path's
                # signature in the fresh region and keep prefetching.
                self.ghr_seeds += 1
                sig = next_signature(parked.signature, parked.delta)
                signature_table.put(region, (offset, sig))
                self._lookahead(ctx, offset, sig,
                                initial_confidence=parked.confidence)
            else:
                # Cold region entry: seed a signature from the offset so
                # regions entered at different points diverge immediately.
                signature_table.put(region, (offset, offset & SIG_MASK))
            return
        last_offset, sig = st_entry
        delta = offset - last_offset
        if delta == 0:
            signature_table.put(region, st_entry)
            return
        self._pattern_entry(sig).train(delta)
        new_sig = next_signature(sig, delta)
        signature_table.put(region, (offset, new_sig))
        self._lookahead(ctx, offset, new_sig)

    # ------------------------------------------------------------------
    def _lookahead(self, ctx: PrefetchContext, offset: int, sig: int,
                   initial_confidence: float = 1.0) -> None:
        """Walk the signature path, emitting one prefetch per step.

        This is the single hottest prefetcher loop in the simulator (one
        invocation per trained access, up to MAX_DEPTH steps each).  Each
        step reads its row's cached ``top`` — ``best()`` and the next
        signature, computed by ``train`` — and the pattern table without
        touching recency, and tests the window inline, bit-for-bit as
        ``ctx.emit`` would; a candidate outside it goes to ``ctx.discard``
        and ends the walk.
        """
        self.lookahead_invocations += 1
        base_block = ctx.block - offset   # first block of the region
        path_confidence = initial_confidence
        cursor = offset
        pt_get = self.pattern_table._data.get   # get(touch=False)
        damping = self.LOOKAHEAD_DAMPING
        threshold = self.PF_THRESHOLD
        fill_threshold = self.FILL_THRESHOLD
        vet = self.vet
        lo = ctx.lo
        hi = ctx.hi
        issuer = ctx.issuer
        requests = ctx.requests
        requests_append = requests.append
        first = len(requests)
        steps = 0
        for _ in range(self.MAX_DEPTH):
            entry = pt_get(sig)
            if entry is None:
                break
            delta, ratio, next_sig = entry.top
            path_confidence *= ratio * damping
            if path_confidence < threshold:
                break
            cursor += delta
            candidate = base_block + cursor
            fill_l2 = (path_confidence >= fill_threshold if vet is None else
                       vet(ctx, candidate, path_confidence, steps, sig, delta))
            if fill_l2 is not None:
                if not lo <= candidate <= hi:
                    # Discarded: Fig. 2 classification, then park the path
                    # in the GHR (cross-region learning continuity).
                    ctx.discard(candidate)
                    if cursor >= self.region_blocks or cursor < 0:
                        self._ghr_record(sig, path_confidence, cursor, delta)
                    break
                requests_append((candidate, fill_l2, issuer))
            steps += 1
            sig = next_sig
        # Each request appended here was proposed and issued (a discarded
        # candidate was counted where it stopped the walk).
        issued = len(requests) - first
        ctx.stats.proposed += issued
        ctx.stats.issued += issued
        self.lookahead_depth_total += steps

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        # ST: tag(16) + last offset(up to 15) + signature(12) per entry;
        # PT: 4 ways x (delta(16) + counter(8)) + total(8) per entry;
        # GHR: signature + confidence(8) + offset + delta(16) per entry.
        st_bits = self.signature_table.capacity * (16 + self.offset_bits + SIG_BITS)
        pt_bits = self.pattern_table.capacity * (4 * (16 + 8) + 8)
        ghr_bits = self.GHR_ENTRIES * (SIG_BITS + 8 + self.offset_bits + 16)
        return st_bits + pt_bits + ghr_bits
