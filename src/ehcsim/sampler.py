"""Online emulation of optimal replacement on sampled sets.

For one set in every sixty-four, the recent access stream is recorded in an
OPTgen window laid out as the native kernel lays it out: a ring of window
positions, each holding the occupancy there and the access recorded there,
a count of the accesses recorded, and a map from each block to its latest
position while that is in the window. Replaying the occupancy rule decides,
from past accesses only, whether each access would have hit under optimal
replacement; those decisions train a PC friendliness table and, when a
block's emulated stay completes, feed its hit count into a per-region
history, one record per table slot, used for expected-hit-count insertion.
"""

from __future__ import annotations

import enum
import sys
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


class SampledSetHistory:
    """The OPTgen window of one sampled set, laid out as ``_kernel.c`` lays
    out a sampled set's slots.

    Positions count this set's recorded accesses; ``seen`` of them so far.
    Window position ``j`` is entry ``j % capacity`` of ``occ`` and of
    ``records``, so the window holds positions ``seen - capacity`` to
    ``seen - 1``; the default, which no trace fills, keeps every position
    (the unbounded window, to validate against the offline oracle). ``occ``
    counts the blocks optimal replacement must keep cached from that
    position to the next, and the record holds the access recorded there:
    its tag and PC, and the fill address and hits so far of the block's
    emulated stay. ``live`` maps a tag to its latest position while that
    position is in the window. Reuse trains ``pc_table``, and every
    completed stay banks its hit count in ``region_table``.
    """

    def __init__(self, associativity, pc_table: PcCounterTable,
                 region_table: RegionHitTable, capacity: int = sys.maxsize):
        self.assoc = associativity
        self.capacity = capacity
        self.pc_table = pc_table
        self.region_table = region_table
        self.occ = []
        self.records = []  # (tag, pc, fill address, hits) per window position
        self.seen = 0
        self.live = {}

    def access(self, tag: int, pc: int, addr: int = 0) -> MinDecision:
        """Record one access and decide Hit/Miss/ColdMiss under emulated MIN.

        Side effects: trains the PC table on the previous toucher of this tag
        (reuse proved it friendly or averse), completes the block's emulated
        stay on a Miss, and completes the stay of a block whose latest
        position leaves the window.
        """
        occ, records, cap, seen = self.occ, self.records, self.capacity, self.seen
        pos = self.live.pop(tag, None)
        hits = 0
        if pos is None:
            decision = MinDecision.COLD_MISS
        else:
            span = [j % cap for j in range(pos, seen)]
            _, last_pc, addr, hits = records[span[0]]
            if all(occ[k] < self.assoc for k in span):
                decision = MinDecision.HIT
                for k in span:
                    occ[k] += 1
                hits += 1
                self.pc_table.train(last_pc, +1)
            else:
                decision = MinDecision.MISS
                self.pc_table.train(last_pc, -1)
                self.region_table.record_eviction(addr, hits)
                hits = 0

        record = (tag, pc, addr, hits)
        if seen < cap:
            occ.append(0)
            records.append(record)
        else:
            # Position seen - cap leaves the window, completing a live stay.
            k = seen % cap
            old_tag, _, old_addr, old_hits = records[k]
            if self.live.get(old_tag) == seen - cap:
                del self.live[old_tag]
                self.region_table.record_eviction(old_addr, old_hits)
            occ[k] = 0
            records[k] = record
        self.live[tag] = seen
        self.seen = seen + 1
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
