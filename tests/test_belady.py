"""Hawkeye and EHC: classification, aging, victim selection, EFH seeding."""

from ehcsim import CacheGeometry, EhcPolicy, HawkeyePolicy, simulate
from ehcsim.engine import RRPV_MAX, BlockState
from ehcsim.sampler import PC_COUNTER_INIT

from conftest import make_trace

GEOM = CacheGeometry(64, 4)
FRIENDLY_PC = 0x400000
AVERSE_PC = 0x500000


def _ways(**field_lists):
    n = len(next(iter(field_lists.values())))
    ways = [BlockState() for _ in range(n)]
    for name, values in field_lists.items():
        for blk, v in zip(ways, values):
            setattr(blk, name, v)
    return ways


def _policy(cls=HawkeyePolicy, **kw):
    policy = cls(GEOM, **kw)
    # Pin the PC classes directly; these tests exercise the policy layer,
    # not the sampler that normally trains the table.
    while policy.pc_table.is_friendly(AVERSE_PC):
        policy.pc_table.train(AVERSE_PC, -1)
    return policy


def _access(pc=FRIENDLY_PC, addr=0):
    """The (addr, pc) arguments of on_hit and on_insert."""
    return addr, pc


def test_hawkeye_evicts_averse_first():
    policy = _policy()
    ways = _ways(rrpv=[7, 0, 3])
    assert policy.choose_victim(0, ways) == (0, False)


def test_hawkeye_falls_back_to_oldest_friendly():
    policy = _policy()
    ways = _ways(rrpv=[0, 6, 3], last_pc=[0, 0x600000, 0])
    assert policy.choose_victim(0, ways) == (1, True)
    # the fallback eviction detrains the victim's last toucher
    idx = policy.pc_table.index(0x600000)
    assert policy.pc_table.counters[idx] == PC_COUNTER_INIT - 1


def test_hawkeye_fallback_tie_breaks_low_way():
    policy = _policy()
    ways = _ways(rrpv=[5, 5, 2])
    way, no_averse = policy.choose_victim(0, ways)
    assert (way, no_averse) == (0, True)


def test_friendly_insert_ages_other_friendly_blocks():
    policy = _policy()
    ways = _ways(rrpv=[0, 3, 6])
    policy.on_insert(0, ways, 0, *_access(FRIENDLY_PC))
    assert [b.rrpv for b in ways] == [0, 4, 6]  # 6 is capped, new block at 0


def test_averse_insert_does_not_age():
    policy = _policy()
    ways = _ways(rrpv=[0, 3, 6])
    policy.on_insert(0, ways, 1, *_access(AVERSE_PC))
    assert [b.rrpv for b in ways] == [0, 7, 6]


def test_hit_reclassifies_without_aging():
    policy = _policy()
    ways = _ways(rrpv=[4, 3, 2])
    policy.on_hit(0, ways, 0, *_access(FRIENDLY_PC))
    assert [b.rrpv for b in ways] == [0, 3, 2]
    policy.on_hit(0, ways, 1, *_access(AVERSE_PC))
    assert [b.rrpv for b in ways] == [0, 7, 2]


def test_ehc_minimizes_efh_minus_rrpv():
    policy = _policy(EhcPolicy)
    ways = _ways(efh=[1, 0, 3], rrpv=[0, 2, 6])
    # scores 1, -2, -3: way 2 loses despite high expected hits once old
    assert policy.choose_victim(0, ways) == (2, True)


def test_ehc_tie_breaks_first_index():
    policy = _policy(EhcPolicy)
    ways = _ways(efh=[0, 0], rrpv=[4, 4])
    assert policy.choose_victim(0, ways) == (0, True)


def test_ehc_defers_to_averse_eviction():
    policy = _policy(EhcPolicy)
    ways = _ways(efh=[0, 5, 0], rrpv=[0, 7, 3])
    assert policy.choose_victim(0, ways) == (1, False)


def test_ehc_matches_hawkeye_when_averse_present():
    h = _policy(HawkeyePolicy)
    e = _policy(EhcPolicy)
    for rrpvs in ([7, 1, 2], [3, 7, 7], [0, 0, 7]):
        hw = _ways(rrpv=rrpvs)
        ew = _ways(rrpv=rrpvs, efh=[2, 2, 2])
        assert h.choose_victim(0, hw) == e.choose_victim(0, ew)


def test_efh_decrements_on_hits_and_saturates():
    policy = _policy(EhcPolicy)
    for h in (3, 3, 3, 3):
        policy.region_table.record_eviction(0, h)
    ways = _ways(efh=[0], rrpv=[0])
    policy.on_insert(0, ways, 0, *_access())
    assert ways[0].efh == 3
    for expected in (2, 1, 0, 0, 0):
        policy.on_hit(0, ways, 0, *_access())
        assert ways[0].efh == expected


def test_efh_seeded_from_region_history():
    policy = _policy(EhcPolicy)
    addr = 6 << 17
    for h in (2, 2, 2, 2):
        policy.region_table.record_eviction(addr, h)
    ways = _ways(efh=[0], rrpv=[0])
    policy.on_insert(0, ways, 0, *_access(addr=addr))
    assert ways[0].efh == 2
    # unknown region falls back to the default of one expected hit
    policy.on_insert(0, ways, 0, *_access(addr=99 << 17))
    assert ways[0].efh == 1


def test_efh_zero_history_region():
    policy = _policy(EhcPolicy)
    addr = 8 << 17
    for h in (0, 0, 0, 0):
        policy.region_table.record_eviction(addr, h)
    ways = _ways(efh=[5], rrpv=[0])
    policy.on_insert(0, ways, 0, *_access(addr=addr))
    assert ways[0].efh == 0


def test_policies_share_one_sampler():
    policy = _policy(EhcPolicy)
    assert policy.sampler.pc_table is policy.pc_table
    assert policy.sampler.region_table is policy.region_table


def test_sampler_trains_through_simulation():
    # Sampled set 0 sees a two-block loop: the PC proves friendly.
    geom = CacheGeometry(64, 2)
    addrs = [(FRIENDLY_PC, geom.block_addr(0, t)) for t in (0, 1, 0, 1, 0, 1)]
    t = make_trace(addrs)
    policy = HawkeyePolicy(geom)
    stats, _, _ = simulate(t, policy, geom, check=True)
    assert policy.pc_table.is_friendly(FRIENDLY_PC)
    assert stats.per_policy["optgen_cold"] == 2
    assert stats.per_policy["optgen_hit"] == 4
    assert stats.per_policy["optgen_miss"] == 0


def test_unsampled_sets_do_not_train():
    geom = CacheGeometry(64, 2)
    addrs = [(FRIENDLY_PC, geom.block_addr(1, t)) for t in (0, 1, 0, 1)]
    policy = HawkeyePolicy(geom)
    simulate(make_trace(addrs), policy, geom)
    idx = policy.pc_table.index(FRIENDLY_PC)
    assert policy.pc_table.counters[idx] == PC_COUNTER_INIT
