"""Occupancy-vector MIN emulation and its predictor tables."""

import numpy as np

from ehcsim import CacheGeometry, MinDecision, MinSampler, SampledSetHistory
from ehcsim.hashing import xor_fold
from ehcsim.sampler import (
    PC_COUNTER_MAX,
    PC_TABLE_BITS,
    PcCounterTable,
    RegionHitTable,
    is_sampled_set,
)

from conftest import single_set_trace

COLD, HIT, MISS = MinDecision.COLD_MISS, MinDecision.HIT, MinDecision.MISS


def _decisions(hist, tags):
    return [hist.access(t, pc=0x400000, addr=ord(t) * 64) for t in tags]


def test_occupancy_walkthrough():
    hist = SampledSetHistory(2, PcCounterTable(), RegionHitTable())
    assert _decisions(hist, ["A", "B", "C", "A", "B"]) == [COLD, COLD, COLD, HIT, HIT]
    assert hist.occ == [1, 2, 2, 1, 0]


def test_occupancy_full_interval_misses():
    hist = SampledSetHistory(1, PcCounterTable(), RegionHitTable())
    assert _decisions(hist, ["A", "B", "B", "A"]) == [COLD, COLD, HIT, MISS]


def test_miss_does_not_increment():
    hist = SampledSetHistory(1, PcCounterTable(), RegionHitTable())
    _decisions(hist, ["A", "B", "B"])
    occ_before = list(hist.occ)
    assert hist.access("A", 0, 0) == MISS
    assert hist.occ == occ_before + [0]


def test_window_retirement_forgets_blocks():
    hist = SampledSetHistory(2, PcCounterTable(), RegionHitTable(), capacity=3)
    assert _decisions(hist, ["A", "B", "C", "D"]) == [COLD, COLD, COLD, COLD]
    # A's slot has been retired, so its return looks cold again.
    assert hist.access("A", 0, 0) == COLD
    assert len(hist.occ) == 3


def test_default_capacity_is_8x_assoc():
    sampler = MinSampler(CacheGeometry(64, 4))
    sampler.observe(0, tag=1, addr=1 << 12, pc=0)
    assert sampler.histories[0].capacity == 32


def test_retirement_flushes_residency_to_region_table():
    regions = RegionHitTable()
    hist = SampledSetHistory(2, PcCounterTable(), regions, capacity=2)
    addr = 0x12345040
    hist.access("A", 0, addr)
    hist.access("A", 0, addr)          # hit: A carries one emulated hit
    hist.access("B", 0, 0x77777000)    # A's recorded slot falls off the window
    assert regions.expected_hits(addr) == 1


def test_occupancy_never_exceeds_associativity(rng):
    geom = CacheGeometry(1, 2)
    t = single_set_trace(rng, length=400, num_tags=8, geom=geom)
    hist = SampledSetHistory(2, PcCounterTable(), RegionHitTable())
    for i in range(len(t)):
        hist.access(int(t.addr[i]) >> 6, int(t.pc[i]), int(t.addr[i]))
        assert all(0 <= c <= 2 for c in hist.occ)


def test_pc_training_on_reuse():
    pcs = PcCounterTable()
    hist = SampledSetHistory(1, pcs, RegionHitTable())
    hist.access("A", 0x400000, 0)
    hist.access("B", 0x400004, 0x40)
    hist.access("B", 0x400004, 0x40)   # proved friendly: trains +1
    hist.access("A", 0x400000, 0)      # interval overflows: trains -1
    assert pcs.counters[pcs.index(0x400004)] == 5
    assert pcs.counters[pcs.index(0x400000)] == 3


def test_pc_counters_saturate():
    pcs = PcCounterTable()
    for _ in range(20):
        pcs.train(0x400000, +1)
    assert pcs.counters[pcs.index(0x400000)] == PC_COUNTER_MAX
    for _ in range(20):
        pcs.train(0x400000, -1)
    assert pcs.counters[pcs.index(0x400000)] == 0
    assert not pcs.is_friendly(0x400000)
    pcs.train(0x400000, +4)
    assert pcs.is_friendly(0x400000)


def test_region_ring_is_circular():
    regions = RegionHitTable()
    addr = 5 << 17
    for h in (2, 1, 1, 0):
        regions.record_eviction(addr, h)
    rid, counts = regions.slots[regions.index(5)]
    assert rid == 5 and list(counts) == [2, 1, 1, 0]
    regions.record_eviction(addr, 3)   # drops the oldest count
    assert list(counts) == [1, 1, 0, 3]


def test_region_expected_hits_rounds_half_up():
    regions = RegionHitTable()
    addr = 9 << 17
    assert regions.expected_hits(addr) == 1  # no history yet
    for h in (0, 1, 2, 3):
        regions.record_eviction(addr, h)
    assert regions.expected_hits(addr) == 2  # mean 1.5 rounds up


def test_region_expected_hits_clamps():
    regions = RegionHitTable()
    addr = 3 << 17
    for h in (9, 9, 9, 9):
        regions.record_eviction(addr, h)
    assert regions.expected_hits(addr) == 7


def test_region_conflict_resets_history():
    regions = RegionHitTable()
    a = 4 << 17
    b = ((1 << 10) | 5) << 17  # xor-folds to the same index, different region
    assert regions.index(4) == regions.index((1 << 10) | 5)
    regions.record_eviction(a, 6)
    assert regions.expected_hits(a) == 6
    regions.record_eviction(b, 2)
    assert regions.expected_hits(b) == 2
    assert regions.expected_hits(a) == 1  # evicted from the table


def test_xor_fold_range():
    for pc in (0, 0x400000, 0xFFFF_FFFF_FFFF_FFFF, 123456789):
        assert 0 <= xor_fold(pc, PC_TABLE_BITS) < (1 << PC_TABLE_BITS)
    assert xor_fold(1, 13) != xor_fold(2, 13)


def test_is_sampled_set():
    assert is_sampled_set(0)
    assert is_sampled_set(64)
    assert not is_sampled_set(1)
    assert not is_sampled_set(63)


def test_min_sampler_routes_and_counts():
    geom = CacheGeometry(128, 2)
    sampler = MinSampler(geom)
    assert sampler.observe(1, tag=0, addr=0, pc=0) is None
    assert sampler.observe(0, tag=7, addr=7 << 13, pc=0) == COLD
    assert sampler.observe(64, tag=7, addr=0, pc=0) == COLD
    assert sampler.observe(0, tag=7, addr=7 << 13, pc=0) == HIT
    assert (sampler.cold, sampler.hit, sampler.miss) == (2, 1, 0)
    assert set(sampler.histories) == {0, 64}
