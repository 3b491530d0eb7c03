"""Belady-inspired online policies: Hawkeye and its EHC extension.

Both learn from the sampled-set MIN emulation (:mod:`ehcsim.sampler`):
Hawkeye classifies load PCs as cache-friendly or cache-averse and evicts
averse blocks first; EHC layers an expected-further-hits countdown on top so
that, when no averse block is available, the victim is the block with the
least predicted remaining value instead of merely the oldest one.
"""

from __future__ import annotations

from .engine import CacheGeometry, ReplacementPolicy
from .params import RRPV_MAX
from .sampler import MinSampler


class HawkeyePolicy(ReplacementPolicy):
    """PC-classification policy driven by emulated optimal replacement.

    Blocks touched by averse PCs sit at the maximum RRPV and are evicted
    first; friendly blocks enter at RRPV 0 and age by one (capped below the
    averse value) whenever another friendly block is inserted, so "oldest"
    is well-defined when every block is friendly. Evicting in that fallback
    case detrains the PC that last touched the victim.
    """

    name = "hawkeye"

    def __init__(self, geom: CacheGeometry, seed: int = 0):
        self.sampler = MinSampler(geom)
        self.pc_table = self.sampler.pc_table

    def on_observe(self, set_index, tag, addr, pc):
        self.sampler.observe(set_index, tag, addr, pc)

    def _classify(self, ways, way, pc, inserted: bool) -> None:
        blk = ways[way]
        blk.last_pc = pc
        if self.pc_table.is_friendly(pc):
            if inserted:
                for other in ways:
                    if other is not blk and other.rrpv < RRPV_MAX - 1:
                        other.rrpv += 1
            blk.rrpv = 0
        else:
            blk.rrpv = RRPV_MAX

    def on_hit(self, set_index, ways, way, addr, pc):
        self._classify(ways, way, pc, inserted=False)

    def on_insert(self, set_index, ways, way, addr, pc):
        self._classify(ways, way, pc, inserted=True)

    def _detrain(self, ways, way) -> None:
        self.pc_table.train(ways[way].last_pc, -1)

    def choose_victim(self, set_index, ways):
        best = 0
        for w, blk in enumerate(ways):
            if blk.rrpv == RRPV_MAX:
                return w, False
            if blk.rrpv > ways[best].rrpv:
                best = w
        self._detrain(ways, best)
        return best, True

    def extra_stats(self):
        return {
            "optgen_cold": self.sampler.cold,
            "optgen_hit": self.sampler.hit,
            "optgen_miss": self.sampler.miss,
        }


class EhcPolicy(HawkeyePolicy):
    """Hawkeye plus a per-block expected-further-hits (EFH) countdown.

    On insertion a block's EFH is seeded from its region's recent residency
    hit counts; each hit decrements it toward zero. When a set holds an
    averse block the victim choice is exactly Hawkeye's; otherwise the block
    minimizing ``efh - rrpv`` (first index on ties) is evicted — low
    expected value and old age both push a block toward eviction.
    """

    name = "ehc"

    def __init__(self, geom: CacheGeometry, seed: int = 0):
        super().__init__(geom, seed=seed)
        self.region_table = self.sampler.region_table

    def on_hit(self, set_index, ways, way, addr, pc):
        blk = ways[way]
        if blk.efh > 0:
            blk.efh -= 1
        super().on_hit(set_index, ways, way, addr, pc)

    def on_insert(self, set_index, ways, way, addr, pc):
        super().on_insert(set_index, ways, way, addr, pc)
        ways[way].efh = self.region_table.expected_hits(addr)

    def choose_victim(self, set_index, ways):
        best = 0
        best_score = ways[0].efh - ways[0].rrpv
        for w, blk in enumerate(ways):
            if blk.rrpv == RRPV_MAX:
                return w, False
            score = blk.efh - blk.rrpv
            if score < best_score:
                best = w
                best_score = score
        self._detrain(ways, best)
        return best, True
