"""Online emulation of optimal replacement on sampled sets.

For one set in every sixty-four, the past access stream is recorded as an
occupancy vector (one counter per recorded access) plus an address cache
mapping block tags to their last recorded position. Replaying the occupancy
rule decides, from past accesses only, whether each access would have hit
under optimal replacement; those decisions train a PC friendliness table and,
when a block's emulated residency completes, feed its hit count into a
per-region history, one record per table slot, used for expected-hit-count
insertion.
"""

from __future__ import annotations

import enum
from collections import deque

from .engine import CacheGeometry
from .hashing import xor_fold
from .params import (
    DEFAULT_EXPECTED_HITS,
    EFH_MAX,
    PC_COUNTER_INIT,
    PC_COUNTER_MAX,
    PC_FRIENDLY_THRESHOLD,
    PC_TABLE_BITS,
    PC_TABLE_SIZE,
    REGION_RING_SLOTS,
    REGION_SHIFT,
    REGION_TABLE_BITS,
    REGION_TABLE_SIZE,
    SAMPLE_PERIOD,
    WINDOW_SLOTS_PER_WAY,
)


class MinDecision(enum.IntEnum):
    COLD_MISS = 0
    HIT = 1
    MISS = 2


def is_sampled_set(set_index: int) -> bool:
    return set_index % SAMPLE_PERIOD == 0


def region_id(addr: int) -> int:
    return addr >> REGION_SHIFT


class PcCounterTable:
    """Saturating 3-bit counters over a 13-bit PC hash; >= 4 means friendly."""

    def __init__(self):
        self.counters = [PC_COUNTER_INIT] * PC_TABLE_SIZE

    @staticmethod
    def index(pc: int) -> int:
        return xor_fold(pc, PC_TABLE_BITS)

    def train(self, pc: int, delta: int) -> None:
        i = self.index(pc)
        c = self.counters[i] + delta
        self.counters[i] = min(max(c, 0), PC_COUNTER_MAX)

    def is_friendly(self, pc: int) -> bool:
        return self.counters[self.index(pc)] >= PC_FRIENDLY_THRESHOLD


class RegionHitTable:
    """Direct-mapped table of the last four residency hit counts per region:
    a slot is None or ``(region id, deque of its counts)``."""

    def __init__(self):
        self.slots = [None] * REGION_TABLE_SIZE

    @staticmethod
    def index(rid: int) -> int:
        return xor_fold(rid, REGION_TABLE_BITS)

    def record_eviction(self, addr: int, hits: int) -> None:
        rid = region_id(addr)
        i = self.index(rid)
        slot = self.slots[i]
        if slot is None or slot[0] != rid:
            slot = self.slots[i] = (rid, deque(maxlen=REGION_RING_SLOTS))
        slot[1].append(hits)

    def expected_hits(self, addr: int) -> int:
        """Round-half-up average of the region's recent residency hit counts,
        clamped to the 3-bit counter range; 1 when no history exists."""
        rid = region_id(addr)
        slot = self.slots[self.index(rid)]
        if slot is None or slot[0] != rid:
            return DEFAULT_EXPECTED_HITS
        n = len(slot[1])
        return min((2 * sum(slot[1]) + n) // (2 * n), EFH_MAX)


class _AddrEntry:
    __slots__ = ("pos", "pc", "addr", "hits")

    def __init__(self, pos, pc, addr):
        self.pos = pos
        self.pc = pc
        self.addr = addr
        self.hits = 0


class SampledSetHistory:
    """Occupancy vector plus address cache for one sampled set.

    Positions are absolute access counters for this set; the window keeps the
    most recent ``capacity`` of them, or all of them when ``capacity`` is
    None (used to validate against the offline oracle). Slot ``k`` counts
    the blocks optimal replacement must keep cached between recorded
    accesses ``k`` and ``k+1``. Reuse trains ``pc_table``, and every
    completed residency banks its hit count in ``region_table``.
    """

    def __init__(self, associativity, pc_table: PcCounterTable,
                 region_table: RegionHitTable, capacity=None):
        self.assoc = associativity
        self.capacity = capacity
        self.pc_table = pc_table
        self.region_table = region_table
        self.occ = []          # occupancy per recorded access, oldest first
        self.base_pos = 0      # absolute position of occ[0]
        self.entries = {}      # tag -> _AddrEntry at its last recorded position
        self.pos_to_tag = {}

    def __len__(self):
        return len(self.occ)

    def _flush(self, entry: _AddrEntry) -> None:
        # A residency completed under the emulation; bank its hit count.
        self.region_table.record_eviction(entry.addr, entry.hits)

    def _retire_oldest(self) -> None:
        retired = self.base_pos
        self.occ.pop(0)
        self.base_pos += 1
        tag = self.pos_to_tag.pop(retired, None)
        if tag is not None:
            self._flush(self.entries.pop(tag))

    def access(self, tag: int, pc: int, addr: int = 0) -> MinDecision:
        """Record one access and decide Hit/Miss/ColdMiss under emulated MIN.

        Side effects: trains the PC table on the previous toucher of this tag
        (reuse proved it friendly or averse), completes the block's emulated
        residency on a Miss, and retires aged-out window slots.
        """
        entry = self.entries.get(tag)
        if entry is None:
            decision = MinDecision.COLD_MISS
        else:
            start = entry.pos - self.base_pos
            if all(c < self.assoc for c in self.occ[start:]):
                decision = MinDecision.HIT
                for k in range(start, len(self.occ)):
                    self.occ[k] += 1
                entry.hits += 1
                self.pc_table.train(entry.pc, +1)
            else:
                decision = MinDecision.MISS
                self.pc_table.train(entry.pc, -1)
                self._flush(entry)
                entry.hits = 0
            del self.pos_to_tag[entry.pos]

        new_pos = self.base_pos + len(self.occ)
        self.occ.append(0)
        if self.capacity is not None and len(self.occ) > self.capacity:
            self._retire_oldest()

        if entry is None:
            entry = _AddrEntry(new_pos, pc, addr)
            self.entries[tag] = entry
        else:
            entry.pos = new_pos
            entry.pc = pc
        self.pos_to_tag[new_pos] = tag
        return decision


class MinSampler:
    """Bundle of per-sampled-set histories and the shared predictor tables.

    Hardware budget, fixed: one set in :data:`SAMPLE_PERIOD` is sampled and
    each history keeps :data:`WINDOW_SLOTS_PER_WAY` slots per way.
    """

    def __init__(self, geom: CacheGeometry):
        self.geom = geom
        self.pc_table = PcCounterTable()
        self.region_table = RegionHitTable()
        self.histories: dict[int, SampledSetHistory] = {}
        self.cold = 0
        self.hit = 0
        self.miss = 0

    def observe(self, set_index: int, tag: int, addr: int, pc: int):
        """Feed one access; returns the MIN decision on sampled sets, else None."""
        if not is_sampled_set(set_index):
            return None
        hist = self.histories.get(set_index)
        if hist is None:
            assoc = self.geom.associativity
            hist = SampledSetHistory(assoc, self.pc_table, self.region_table,
                                     capacity=WINDOW_SLOTS_PER_WAY * assoc)
            self.histories[set_index] = hist
        decision = hist.access(tag, pc, addr)
        if decision == MinDecision.COLD_MISS:
            self.cold += 1
        elif decision == MinDecision.HIT:
            self.hit += 1
        else:
            self.miss += 1
        return decision
