"""Baseline replacement policies: LRU, SRRIP, BRRIP, DRRIP, SHiP.

The RRIP family shares one victim-selection procedure (evict the first block
at the maximum RRPV, incrementing every block until one gets there) and
differs only in insertion behavior. Each hook walks the lines it is given,
the set's filled lines, by ``len(ways)``; the engine asks for a victim only
in a full set. The state is plain Python: SHiP's counter table is a list,
and each line keeps its filling PC and its outcome, which the kernel reads
from the trace at the line's fill and latest positions.
"""

from __future__ import annotations

from .engine import CacheGeometry, ReplacementPolicy
from .hashing import xor_fold
from .params import (
    BRRIP_LEADER_OFFSET,
    BRRIP_LONG_ODDS,
    LEADER_PERIOD,
    PSEL_INIT,
    PSEL_MAX,
    RRPV_MAX,
    SHCT_BITS,
    SHCT_MAX,
    SHCT_SIZE,
    SM_GAMMA,
    SM_MIX1,
    SM_MIX2,
    SRRIP_LEADER_OFFSET,
)

_M64 = (1 << 64) - 1


def brrip_long_insert(seed: int, n: int) -> bool:
    """Whether the n-th bimodal insertion uses the long (max-1) RRPV.

    Counter-mode splitmix64 keyed by (seed, n): stateless, so the reference
    engine and the native kernel (which ports this function to C) consume
    identical decision streams.
    """
    z = (seed + (n + 1) * SM_GAMMA) & _M64
    z = ((z ^ (z >> 30)) * SM_MIX1) & _M64
    z = ((z ^ (z >> 27)) * SM_MIX2) & _M64
    z ^= z >> 31
    return (z & (BRRIP_LONG_ODDS - 1)) == 0


def lru_choose_victim(ways) -> int:
    """Way holding the least recently touched block (smallest stamp)."""
    victim = 0
    for w in range(1, len(ways)):
        if ways[w].recency_stamp < ways[victim].recency_stamp:
            victim = w
    return victim


def rrip_choose_victim(ways) -> int:
    """First way at the maximum RRPV, aging every block until one reaches it.

    Mutates the RRPVs, matching the hardware procedure.
    """
    while True:
        for w in range(len(ways)):
            if ways[w].rrpv == RRPV_MAX:
                return w
        for blk in ways:
            blk.rrpv += 1


class LruPolicy(ReplacementPolicy):
    name = "lru"

    def __init__(self, geom: CacheGeometry, seed: int = 0):
        pass

    def choose_victim(self, set_index, ways):
        return lru_choose_victim(ways), False


class RripPolicy(ReplacementPolicy):
    """What the RRIP family shares: a hit resets the block's RRPV to 0 and
    the victim is :func:`rrip_choose_victim`'s. Insertion is SRRIP's, at
    ``RRPV_MAX - 1``; subclasses change it."""

    def __init__(self, geom: CacheGeometry, seed: int = 0):
        self.seed = seed

    def on_hit(self, set_index, ways, way, addr, pc):
        ways[way].rrpv = 0

    def choose_victim(self, set_index, ways):
        return rrip_choose_victim(ways), False

    def on_insert(self, set_index, ways, way, addr, pc):
        ways[way].rrpv = RRPV_MAX - 1


class SrripPolicy(RripPolicy):
    name = "srrip"


class BrripPolicy(RripPolicy):
    name = "brrip"

    def __init__(self, geom: CacheGeometry, seed: int = 0):
        super().__init__(geom, seed)
        self.insertions = 0
        self.long_inserts = 0

    def bimodal_rrpv(self) -> int:
        long = brrip_long_insert(self.seed, self.insertions)
        self.insertions += 1
        if long:
            self.long_inserts += 1
            return RRPV_MAX - 1
        return RRPV_MAX

    def on_insert(self, set_index, ways, way, addr, pc):
        ways[way].rrpv = self.bimodal_rrpv()

    def extra_stats(self):
        return {"long_inserts": self.long_inserts}


class DrripPolicy(BrripPolicy):
    """Set-dueling between SRRIP and BRRIP insertion.

    Leader sets are fixed, not random, for reproducibility: sets at
    ``index % 64 == 0`` always insert SRRIP-style, sets at
    ``index % 64 == 33`` BRRIP-style (32 + 32 leaders at 2048 sets).
    Followers use SRRIP while PSEL sits below the midpoint. Bimodal
    insertions draw from BRRIP's stream.
    """

    name = "drrip"

    def __init__(self, geom: CacheGeometry, seed: int = 0):
        super().__init__(geom, seed)
        self.psel = PSEL_INIT

    def uses_brrip(self, set_index: int) -> bool:
        offset = set_index % LEADER_PERIOD
        if offset == SRRIP_LEADER_OFFSET:
            return False
        if offset == BRRIP_LEADER_OFFSET:
            return True
        return self.psel >= PSEL_INIT

    def on_insert(self, set_index, ways, way, addr, pc):
        offset = set_index % LEADER_PERIOD
        if offset == SRRIP_LEADER_OFFSET:
            self.psel = min(self.psel + 1, PSEL_MAX)
        elif offset == BRRIP_LEADER_OFFSET:
            self.psel = max(self.psel - 1, 0)
        if self.uses_brrip(set_index):
            super().on_insert(set_index, ways, way, addr, pc)
        else:
            ways[way].rrpv = RRPV_MAX - 1

    def extra_stats(self):
        return {"psel": self.psel}


class ShipPolicy(RripPolicy):
    """Signature-based hit prediction: PCs whose blocks die unused insert at
    the maximum RRPV, everything else at max-1. A line keeps the PC that
    filled it, ``last_pc``, and whether it was hit since, its outcome;
    evicting it trains the counter in ``shct`` of that PC's signature."""

    name = "ship"

    def __init__(self, geom: CacheGeometry, seed: int = 0):
        super().__init__(geom, seed)
        self.shct = [0] * SHCT_SIZE

    def on_hit(self, set_index, ways, way, addr, pc):
        super().on_hit(set_index, ways, way, addr, pc)
        ways[way].outcome = 1

    def choose_victim(self, set_index, ways):
        way, no_averse = super().choose_victim(set_index, ways)
        sig = xor_fold(ways[way].last_pc, SHCT_BITS)
        if ways[way].outcome:
            if self.shct[sig] < SHCT_MAX:
                self.shct[sig] += 1
        elif self.shct[sig] > 0:
            self.shct[sig] -= 1
        return way, no_averse

    def on_insert(self, set_index, ways, way, addr, pc):
        ways[way].last_pc = pc
        ways[way].outcome = 0
        ways[way].rrpv = RRPV_MAX if self.shct[xor_fold(pc, SHCT_BITS)] == 0 else RRPV_MAX - 1
