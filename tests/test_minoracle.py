"""Offline MIN: next-use scan, bypass semantics, residencies, instruments."""

import numpy as np
import pytest

from ehcsim import (
    BYPASS,
    CacheGeometry,
    MinDecision,
    MissingEventLog,
    NO_NEXT_USE,
    ResidencyLog,
    UsageError,
    compute_next_use,
    mean_rank,
    per_block_prediction_error,
    per_region_prediction_error,
    simulate_min,
    victim_quality,
)
from ehcsim import _kernels, runner

from conftest import (
    assert_same_min,
    event_log,
    make_trace,
    max_hits_exhaustive,
    random_trace,
    residency_log,
)
from loop_oracles import Event, Residency

A, B, C, D, Z = 0x000, 0x040, 0x080, 0x0C0, 0x100
GEOM1x2 = CacheGeometry(1, 2)


def test_next_use_basic():
    t = make_trace([A, B, A])
    assert compute_next_use(t, GEOM1x2).tolist() == [2, NO_NEXT_USE, NO_NEXT_USE]


def test_next_use_all_distinct():
    t = make_trace([A, B, C])
    assert (compute_next_use(t, GEOM1x2) == NO_NEXT_USE).all()


def test_next_use_repeats():
    t = make_trace([A, A, A])
    assert compute_next_use(t, GEOM1x2).tolist() == [1, 2, NO_NEXT_USE]


def test_next_use_is_block_granular():
    t = make_trace([0x000, 0x020])  # same 64B block, different bytes
    assert compute_next_use(t, GEOM1x2).tolist() == [1, NO_NEXT_USE]


def test_min_without_bypass():
    t = make_trace([A, B, C, A, B])
    stats, decisions, residencies, _ = simulate_min(t, GEOM1x2, bypass=False)
    assert (stats.hits, stats.misses) == (1, 4)
    assert decisions.tolist() == [
        MinDecision.COLD_MISS, MinDecision.COLD_MISS, MinDecision.COLD_MISS,
        MinDecision.HIT, MinDecision.MISS,
    ]
    assert stats.per_policy["bypasses"] == 0
    hits_by_stay = dict(zip(zip(residencies.addr.tolist(), residencies.end.tolist()),
                            residencies.hits.tolist()))
    assert hits_by_stay[(B, 2)] == 0   # evicted for C
    assert hits_by_stay[(A, 4)] == 1   # evicted for B's return
    assert (C, len(t)) in hits_by_stay  # still resident at the end
    assert int(residencies.hits.sum()) == stats.hits


def test_min_with_bypass():
    t = make_trace([A, B, C, A, B])
    stats, decisions, residencies, _ = simulate_min(t, GEOM1x2, bypass=True)
    assert (stats.hits, stats.misses) == (2, 3)
    assert decisions.tolist() == [
        MinDecision.COLD_MISS, MinDecision.COLD_MISS, MinDecision.COLD_MISS,
        MinDecision.HIT, MinDecision.HIT,
    ]
    assert stats.per_policy["bypasses"] == 1
    assert stats.replacements_total == 0
    # C was never inserted, so only A and B ever occupied the set
    assert set(residencies.addr.tolist()) == {A, B}


def test_bypass_loses_ties():
    # incoming and farthest resident both dead: keep the resident out? no —
    # ties go to the residents, the incoming block is not inserted only when
    # strictly farther. Equal (both never used again) means insert.
    t = make_trace([A, B, C])
    stats, _, residencies, _ = simulate_min(t, CacheGeometry(1, 1), bypass=True)
    assert stats.per_policy["bypasses"] == 0
    assert stats.replacements_total == 2
    assert set(residencies.addr.tolist()) == {A, B, C}


def test_min_bypass_never_hurts(rng):
    geom = CacheGeometry(2, 2)
    for _ in range(50):
        t = random_trace(rng, length=int(rng.integers(10, 80)),
                         num_blocks=int(rng.integers(3, 12)))
        with_b, _, _, _ = simulate_min(t, geom, bypass=True)
        without, _, _, _ = simulate_min(t, geom, bypass=False)
        assert with_b.hits >= without.hits


def test_min_bypass_matches_exhaustive_search(rng):
    geom = CacheGeometry(1, 2)
    for _ in range(40):
        n = int(rng.integers(4, 12))
        tags = [int(x) for x in rng.integers(0, 4, size=n)]
        t = make_trace([geom.block_addr(0, tag) for tag in tags])
        for bypass in (False, True):
            stats, _, _, _ = simulate_min(t, geom, bypass=bypass)
            assert stats.hits == max_hits_exhaustive(tags, 2, bypass=bypass)


def _recs(addr, hit_counts, start=0):
    return [
        Residency(addr=addr, fill=start + 10 * k, end=start + 10 * k + 9, hits=h)
        for k, h in enumerate(hit_counts)
    ]


def test_block_error_steady_block_is_exact():
    hist = per_block_prediction_error(residency_log(_recs(A, [2, 2, 2, 2, 2])))
    assert hist.tolist() == [4, 0, 0, 0, 0]


def test_block_error_mixed_history():
    # predictions: 0, 1, 1, 1 against actuals 1, 1, 2, 3
    hist = per_block_prediction_error(residency_log(_recs(A, [0, 1, 1, 2, 3])))
    assert hist.tolist() == [1, 2, 1, 0, 0]


def test_block_error_last_bucket_saturates():
    hist = per_block_prediction_error(residency_log(_recs(A, [0, 9])))
    assert hist.tolist() == [0, 0, 0, 0, 1]


def test_block_error_first_sighting_excluded():
    assert per_block_prediction_error(residency_log(_recs(A, [5]))).sum() == 0
    # ... per block: two different blocks, one residency each
    recs = _recs(A, [3]) + _recs(B, [3], start=100)
    assert per_block_prediction_error(residency_log(recs)).sum() == 0


def test_block_error_window_is_four():
    # five 0-hit residencies then a 4: the lone spike predicts from [0,0,0,0]
    hist = per_block_prediction_error(residency_log(_recs(A, [0, 0, 0, 0, 0, 4])))
    assert hist.tolist() == [4, 0, 0, 0, 1]


def test_region_error_pools_blocks():
    # same 128 KB region: B's first residency is predicted from A's
    recs = _recs(A, [1]) + _recs(B, [1], start=100)
    assert per_region_prediction_error(residency_log(recs)).tolist() == [1, 0, 0, 0, 0]
    # different regions: nothing to predict from
    far = A + (1 << 17)
    recs = _recs(A, [1]) + _recs(far, [1], start=100)
    assert per_region_prediction_error(residency_log(recs)).sum() == 0


def test_error_histograms_sort_by_completion():
    recs = _recs(A, [0, 4])
    hist_fwd = per_block_prediction_error(residency_log(recs))
    hist_rev = per_block_prediction_error(residency_log(list(reversed(recs))))
    assert hist_fwd.tolist() == hist_rev.tolist() == [0, 0, 0, 0, 1]


def _quality_fixture():
    geom = CacheGeometry(1, 3)
    addrs = [A, B, C, D, Z, Z, B, Z, D, Z, Z, Z, Z, A]
    t = make_trace(addrs)
    # candidates at index 3: residents A (last access 0, next use 13),
    # B (1, 6), C (2, never), incoming D (8)
    def events(victim_way, resident_pos=(0, 1, 2), index=3):
        return event_log([Event(index=index, victim_way=victim_way, no_averse=False,
                                resident_pos=resident_pos)], geom.associativity)
    return geom, t, events


def test_victim_quality_ranks():
    geom, t, events = _quality_fixture()
    hist = victim_quality(events(2), t, geom)     # evicting C: optimal
    assert hist.tolist() == [1, 0, 0, 0]
    hist = victim_quality(events(1), t, geom)     # evicting B: worst
    assert hist.tolist() == [0, 0, 0, 1]
    hist = victim_quality(events(0), t, geom)     # evicting A: only C farther
    assert hist.tolist() == [0, 1, 0, 0]


def test_victim_quality_scores_bypass():
    geom, t, events = _quality_fixture()
    hist = victim_quality(events(BYPASS), t, geom)  # D at 5: A and C farther
    assert hist.tolist() == [0, 0, 1, 0]


def test_victim_quality_requires_events():
    _, t, _ = _quality_fixture()
    with pytest.raises(MissingEventLog):
        victim_quality(None, t, CacheGeometry(1, 3))


@pytest.mark.parametrize("index, resident_pos, message", [
    (14, (0, 1, 2), "outside the trace"),        # past the last access
    (-1, (0, 1, 2), "outside the trace"),
    (3, (0, -1, 2), "outside the trace"),
    (3, (0, 1, 3), "not before its event"),      # the incoming access itself
    (3, (0, 1, 20), "not before its event"),
    (7, (0, 1, 2), "accessed again before"),     # B's latest access is 6, not 1
    (8, (0, 6, 3), "accessed again before"),     # D, the incoming block, at 3
], ids=["past-end", "negative-index", "negative-resident", "at-index", "after-index",
        "stale-resident", "incoming-resident"])
def test_victim_quality_rejects_a_log_from_another_trace(index, resident_pos, message):
    geom, t, events = _quality_fixture()
    with pytest.raises(ValueError, match=message):
        victim_quality(events(0, resident_pos, index), t, geom)


@pytest.mark.parametrize("victim_way", [3, -2])
def test_victim_quality_rejects_a_victim_outside_the_ways(victim_way):
    geom, t, events = _quality_fixture()
    with pytest.raises(ValueError, match="3-way cache"):
        victim_quality(events(victim_way), t, geom)
    with pytest.raises(ValueError, match="4-way cache"):
        victim_quality(events(0), t, CacheGeometry(1, 4))


def test_mean_rank():
    assert mean_rank(np.array([1, 0, 0, 1])) == 1.5
    assert mean_rank(np.zeros(4, dtype=np.int64)) == 0.0


def test_min_events_rank_zero(rng):
    geom = CacheGeometry(2, 2)
    t = random_trace(rng, length=200, num_blocks=10)
    _, _, _, events = simulate_min(t, geom, bypass=True, record_events=True)
    hist = victim_quality(events, t, geom)
    assert hist.sum() > 0
    assert hist[0] == hist.sum()  # MIN's choices are always rank 0


# --- the native MIN against the reference engine's MIN on edge cases ------

TOP = (1 << 64) - 1


def _top_blocks(rng, length=600, blocks=40):
    """Byte addresses in the highest ``blocks`` 64-byte blocks of the 64-bit
    space, the last one included."""
    return [TOP - 64 * int(b) for b in rng.integers(0, blocks, size=length)]


MIN_EDGE_CASES = {
    "empty": lambda rng: (CacheGeometry(2, 2), []),
    "single-access": lambda rng: (CacheGeometry(2, 2), [TOP]),
    "1x1": lambda rng: (CacheGeometry(1, 1), [A, B, A, C, A, A, B, C, C, A]),
    "1x1-random": lambda rng: (CacheGeometry(1, 1), [64 * int(b) for b in
                                                     rng.integers(0, 4, size=300)]),
    "top-of-address-space": lambda rng: (CacheGeometry(4, 2), _top_blocks(rng)),
    "top-of-address-space-wide": lambda rng: (CacheGeometry(64, 16), _top_blocks(rng, 3000, 2000)),
    "64-offset-bits": lambda rng: (CacheGeometry(2, 2, 64), _top_blocks(rng, 50)),
    "70-offset-bits": lambda rng: (CacheGeometry(2, 2, 70), [0, 64, TOP, 1 << 63]),
}


@pytest.mark.parametrize("bypass", [False, True])
@pytest.mark.parametrize("case", MIN_EDGE_CASES)
def test_kernel_min_matches_python_min_on_edge_cases(case, bypass, rng):
    geom, addrs = MIN_EDGE_CASES[case](rng)
    trace = make_trace(addrs)
    for record_events in (False, True):
        got = simulate_min(trace, geom, bypass=bypass, record_events=record_events,
                           backend="kernel")
        assert_same_min(got, simulate_min(trace, geom, bypass=bypass,
                                          record_events=record_events,
                                          backend="reference"))
    stats, _, residencies, events = got
    assert stats.accesses == len(trace)
    # Every fill is one residency, and every hit belongs to one.
    assert len(residencies) == stats.misses - stats.per_policy["bypasses"]
    assert int(residencies.hits.sum()) == stats.hits
    assert events.resident_pos.shape == (len(events), geom.associativity)
    ranks = victim_quality(events, trace, geom)
    assert ranks.sum() == len(events)
    if bypass:  # then MIN's choices are all rank 0
        assert ranks[0] == len(events)
    if geom.block_offset_bits >= 64:
        # As in Python, every address falls in block 0.
        assert stats.misses == min(len(trace), 1)
        assert residencies.addr.tolist() == [0] * len(residencies)


@pytest.mark.parametrize("backend", ["kernel", "reference"])
def test_simulate_min_records_no_events_unless_asked(backend, monkeypatch, rng):
    # The residencies come from the eviction column, so neither backend is
    # asked for an event log unless the caller wants one.
    asked = []
    for module, name in ((_kernels, "run"), (runner, "simulate")):
        def spy(*args, real=getattr(module, name), **kwargs):
            asked.append(kwargs.get("record_events", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    trace = random_trace(rng, length=400, num_blocks=24)
    geom = CacheGeometry(2, 2)
    for bypass in (False, True):
        quiet = simulate_min(trace, geom, bypass=bypass, backend=backend)
        loud = simulate_min(trace, geom, bypass=bypass, record_events=True, backend=backend)
        assert asked == [False, True]
        assert quiet[3] is None and len(loud[3]) > 0
        assert_same_min(quiet, (*loud[:3], None))
        asked.clear()


def test_min_kernel_handles_the_last_block():
    trace = make_trace([TOP, TOP - 64, TOP])
    stats, _, residencies, _ = simulate_min(trace, CacheGeometry(1, 1), bypass=False,
                                            backend="kernel")
    assert stats.hits == 0
    assert residencies.addr.tolist() == [TOP - 63, TOP - 127, TOP - 63]
    assert isinstance(residencies, ResidencyLog)


def test_simulate_min_rejects_unknown_backend():
    with pytest.raises(UsageError, match="unknown backend 'kernal'"):
        simulate_min(make_trace([A]), GEOM1x2, backend="kernal")
