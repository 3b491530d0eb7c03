"""Baseline policies: LRU, the RRIP family, set dueling, SHiP."""

import numpy as np
import pytest

from ehcsim import (
    BrripPolicy,
    CacheGeometry,
    DrripPolicy,
    LruPolicy,
    ShipPolicy,
    SrripPolicy,
    simulate,
)
from ehcsim.engine import RRPV_MAX, BlockState
from ehcsim.policies import (
    PSEL_INIT,
    PSEL_MAX,
    brrip_long_insert,
    lru_choose_victim,
    rrip_choose_victim,
)

from conftest import lru_oracle_hits, make_trace, random_trace


def _ways(**field_lists):
    """Build a list of BlockState from parallel per-field value lists."""
    n = len(next(iter(field_lists.values())))
    ways = [BlockState() for _ in range(n)]
    for name, values in field_lists.items():
        for blk, v in zip(ways, values):
            setattr(blk, name, v)
    return ways


def test_lru_picks_smallest_stamp():
    ways = _ways(recency_stamp=[5, 2, 9])
    assert lru_choose_victim(ways) == 1


def test_lru_victim_after_touch():
    ways = _ways(recency_stamp=[5, 2, 9])
    ways[1].recency_stamp = 10
    assert lru_choose_victim(ways) == 0


def test_lru_matches_move_to_front_oracle(rng):
    geom = CacheGeometry(4, 4)
    for _ in range(200):
        t = random_trace(rng, length=int(rng.integers(5, 120)),
                         num_blocks=int(rng.integers(2, 24)))
        _, _, flags = simulate(t, LruPolicy(geom), geom)
        assert flags.tolist() == lru_oracle_hits(t, geom).tolist()


def test_rrip_victim_no_aging_needed():
    ways = _ways(rrpv=[7, 0, 3])
    assert rrip_choose_victim(ways) == 0
    assert [b.rrpv for b in ways] == [7, 0, 3]


def test_rrip_victim_ages_until_max():
    ways = _ways(rrpv=[5, 6, 6])
    assert rrip_choose_victim(ways) == 1
    assert [b.rrpv for b in ways] == [6, 7, 7]


def test_rrip_victim_all_zero():
    ways = _ways(rrpv=[0, 0, 0])
    assert rrip_choose_victim(ways) == 0


def test_srrip_insert_and_promote():
    geom = CacheGeometry(1, 2)
    policy = SrripPolicy(geom)
    ways = _ways(rrpv=[0, 0])
    policy.on_insert(0, ways, 1, 0, 0)
    assert ways[1].rrpv == RRPV_MAX - 1
    policy.on_hit(0, ways, 1, 0, 0)
    assert ways[1].rrpv == 0


def test_brrip_long_insert_rate():
    longs = sum(brrip_long_insert(1, i) for i in range(32000))
    assert 800 <= longs <= 1200  # 1/32 of 32000 = 1000


def test_brrip_seed_changes_stream():
    assert ([brrip_long_insert(1, i) for i in range(4096)]
            != [brrip_long_insert(2, i) for i in range(4096)])


def test_brrip_insert_rrpvs():
    geom = CacheGeometry(1, 1)
    policy = BrripPolicy(geom, seed=1)
    seen = set()
    ways = _ways(rrpv=[0])
    for _ in range(200):
        policy.on_insert(0, ways, 0, 0, 0)
        seen.add(ways[0].rrpv)
    assert seen == {RRPV_MAX, RRPV_MAX - 1}
    assert policy.extra_stats()["long_inserts"] == policy.long_inserts


def test_drrip_follower_obeys_psel():
    geom = CacheGeometry(2048, 16)
    policy = DrripPolicy(geom)
    follower = 1  # neither leader offset
    policy.psel = 0
    assert not policy.uses_brrip(follower)
    policy.psel = PSEL_MAX
    assert policy.uses_brrip(follower)
    assert policy.uses_brrip(33)          # BRRIP leader regardless
    policy.psel = PSEL_MAX
    assert not policy.uses_brrip(64)      # SRRIP leader regardless


def test_drrip_leader_counts():
    # Leaders insert their own way whatever PSEL says: 32 of each at 2048
    # sets, and no set leads for both.
    geom = CacheGeometry(2048, 16)
    policy = DrripPolicy(geom)
    policy.psel = PSEL_MAX
    srrip_leaders = {s for s in range(geom.num_sets) if not policy.uses_brrip(s)}
    policy.psel = 0
    brrip_leaders = {s for s in range(geom.num_sets) if policy.uses_brrip(s)}
    assert len(srrip_leaders) == len(brrip_leaders) == 32
    assert not srrip_leaders & brrip_leaders


def test_drrip_psel_moves_on_leader_misses():
    geom = CacheGeometry(64, 1)
    policy = DrripPolicy(geom)
    ways = _ways(rrpv=[0])
    policy.on_insert(0, ways, 0, 0, 0)   # SRRIP leader miss
    assert policy.psel == PSEL_INIT + 1
    policy.on_insert(33, ways, 0, 0, 0)  # BRRIP leader miss
    assert policy.psel == PSEL_INIT


def test_drrip_beats_srrip_on_thrash():
    # Loop of assoc+1 blocks per set, thrashing an SRRIP-leader set, a
    # BRRIP-leader set, and a follower simultaneously. SRRIP gets nothing;
    # the dueling cache keeps most of each loop resident.
    geom = CacheGeometry(64, 4)
    addrs = []
    for _ in range(100):
        for b in range(geom.associativity + 1):
            for s in (0, 33, 1):
                addrs.append(geom.block_addr(s, b))
    t = make_trace(addrs)
    srrip, _, _ = simulate(t, SrripPolicy(geom, seed=7), geom)
    drrip, _, _ = simulate(t, DrripPolicy(geom, seed=7), geom)
    assert srrip.hits < drrip.hits


def test_ship_insertion_follows_counter():
    geom = CacheGeometry(1, 2)
    policy = ShipPolicy(geom)
    sig_ways = _ways(rrpv=[0, 0])
    policy.on_insert(0, sig_ways, 0, 0, 0x500)
    assert sig_ways[0].rrpv == RRPV_MAX        # counter at zero: distant
    sig = policy.signature[0, 0]
    policy.shct[sig] = 5
    policy.on_insert(0, sig_ways, 0, 0, 0x500)
    assert sig_ways[0].rrpv == RRPV_MAX - 1
    assert policy.outcome[0, 0] == 0           # insert clears the outcome bit


def test_ship_trains_on_eviction():
    geom = CacheGeometry(1, 1)
    policy = ShipPolicy(geom)
    ways = _ways(rrpv=[7])
    policy.on_insert(0, ways, 0, 0, 0x500)
    sig = policy.signature[0, 0]
    policy.on_hit(0, ways, 0, 0, 0x500)        # block got reused
    policy.choose_victim(0, ways)
    assert policy.shct[sig] == 1
    policy.outcome[0, 0] = 0                   # dead block this time
    ways[0].rrpv = 7
    policy.choose_victim(0, ways)
    assert policy.shct[sig] == 0


def test_ship_counter_saturates_on_reused_pc():
    geom = CacheGeometry(1, 1)
    # one PC, two alternating blocks: every residency sees a hit before
    # eviction on a 1-way set sized to force eviction each switch
    addrs = []
    for _ in range(10):
        addrs += [(0x700, 0x000), (0x700, 0x000), (0x700, 0x040), (0x700, 0x040)]
    t = make_trace(addrs)
    policy = ShipPolicy(geom)
    simulate(t, policy, geom)
    sig = policy.signature[0, 0]
    assert policy.shct[sig] == 7


def test_policies_accept_seed_kwarg():
    geom = CacheGeometry(2, 2)
    for cls in (LruPolicy, SrripPolicy, BrripPolicy, DrripPolicy, ShipPolicy):
        cls(geom, seed=5)
