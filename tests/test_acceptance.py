"""Acceptance gate: one test per shipped guarantee.

Each test is one pass/fail line. The quantitative thresholds (0.99 MPKI
ratio, runtime budgets, corpus sizes) are fixed here on purpose — loosening
them is a behavior change, not a test fix.
"""

import time

import numpy as np
import pytest

from ehcsim import (
    BYPASS,
    CacheGeometry,
    EhcPolicy,
    GeneratorSpec,
    HawkeyePolicy,
    Report,
    SampledSetHistory,
    gen_synthetic,
    mean_rank,
    mpki,
    no_averse_fraction,
    per_block_prediction_error,
    per_region_prediction_error,
    simulate,
    simulate_min,
    victim_quality,
)
from ehcsim.cli import main
from ehcsim.engine import BlockState, EFH_MAX, RRPV_MAX
from ehcsim.policies import PSEL_MAX, SHCT_MAX
from ehcsim.sampler import PC_COUNTER_MAX, PcCounterTable, RegionHitTable
from ehcsim.runner import POLICY_NAMES, make_policy, run_policy

from conftest import make_trace, max_hits_exhaustive, single_set_trace

CORPUS_SIZE = 1000


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(42)
    out = []
    for k in range(CORPUS_SIZE):
        geom = CacheGeometry(1, 2 if k % 2 == 0 else 4)
        length = int(rng.integers(16, 200))
        num_tags = int(rng.integers(2, 17))
        out.append((single_set_trace(rng, length, num_tags, geom), geom))
    return out


def test_c01_optgen_matches_offline_min(corpus):
    t0 = time.monotonic()
    for trace, geom in corpus:
        hist = SampledSetHistory(geom.associativity, PcCounterTable(), RegionHitTable())
        got = [
            int(hist.access(geom.tag(int(a)), int(p), int(a)))
            for a, p in zip(trace.addr, trace.pc)
        ]
        _, decisions, _, _ = simulate_min(trace, geom, bypass=True)
        assert got == decisions.tolist()
    assert time.monotonic() - t0 < 10.0


def test_c02_min_with_bypass_dominates(corpus):
    for trace, geom in corpus:
        best, _, _, _ = simulate_min(trace, geom, bypass=True)
        nobyp, _, _, _ = simulate_min(trace, geom, bypass=False)
        assert best.hits >= nobyp.hits
        for name in POLICY_NAMES:
            stats, _, _ = run_policy(trace, name, geom)
            assert best.hits >= stats.hits, name


def test_c03_greedy_min_equals_exhaustive_search():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    for k in range(200):
        assoc = 1 + k % 3
        geom = CacheGeometry(1, assoc)
        n = int(rng.integers(4, 13))
        tags = [int(x) for x in rng.integers(0, 5, size=n)]
        trace = make_trace([geom.block_addr(0, tag) for tag in tags])
        for bypass in (False, True):
            stats, _, _, _ = simulate_min(trace, geom, bypass=bypass)
            assert stats.hits == max_hits_exhaustive(tags, assoc, bypass)
    assert time.monotonic() - t0 < 30.0


def test_c04_lru_matches_recency_list_oracle(corpus):
    from conftest import lru_oracle_hits

    for trace, geom in corpus:
        _, _, flags = run_policy(trace, "lru", geom)
        assert flags.tolist() == lru_oracle_hits(trace, geom).tolist()


def _pinned_ehc(**kw):
    policy = EhcPolicy(CacheGeometry(64, 4), **kw)
    return policy


def _ways(pairs):
    ways = []
    for efh, rrpv in pairs:
        blk = BlockState()
        blk.valid = True
        blk.efh = efh
        blk.rrpv = rrpv
        ways.append(blk)
    return ways


def test_c05_ehc_victim_formula():
    addr, pc = 0x40, 0x400000
    policy = _pinned_ehc()
    # argmin of (efh - rrpv): scores 1, -2, -3
    assert policy.choose_victim(0, _ways([(1, 0), (0, 2), (3, 6)])) == (2, True)
    # ties break toward the first index
    assert policy.choose_victim(0, _ways([(0, 4), (0, 4)])) == (0, True)
    assert policy.choose_victim(0, _ways([(2, 1), (3, 2), (1, 0)])) == (0, True)
    # an rrpv==7 block delegates to the Hawkeye rule, reported averse
    assert policy.choose_victim(0, _ways([(0, 0), (5, 7), (0, 3)])) == (1, False)
    hawkeye = HawkeyePolicy(CacheGeometry(64, 4))
    for pairs in ([(2, 7), (1, 1)], [(0, 3), (0, 7), (4, 7)]):
        assert (policy.choose_victim(0, _ways(pairs))
                == hawkeye.choose_victim(0, _ways(pairs)))
    # efh decrements on hits and saturates at zero
    ways = _ways([(2, 0)])
    for expected in (1, 0, 0):
        policy.on_hit(0, ways, 0, addr, pc)
        assert ways[0].efh == expected


def test_c06_no_averse_fraction_plumbing():
    # one friendly PC looping in-capacity, one averse PC streaming over it
    pc_f, pc_a = 0x400000, 0x500000
    geom = CacheGeometry(1, 4)
    accesses = []
    for _ in range(40):
        accesses += [(pc_f, b * 64) for b in range(4)]
        accesses += [(pc_a, b * 64) for b in range(4, 8)]
    trace = make_trace(accesses)
    stats, events, _ = simulate(
        trace, make_policy("ehc", geom), geom, record_events=True, check=True
    )
    fraction = no_averse_fraction(stats)
    assert 0.0 < fraction < 1.0
    # the stats counters are exactly the event-log tallies
    no_averse = int(np.count_nonzero(events.no_averse))
    averse_present = int(np.count_nonzero(~events.no_averse))
    assert stats.replacements_no_averse == no_averse
    assert stats.replacements_total == no_averse + averse_present == len(events)
    assert fraction == no_averse / len(events)


def test_c07_ehc_beats_hawkeye_on_region_workload():
    t0 = time.monotonic()
    trace = gen_synthetic(GeneratorSpec("region", block_count=4096,
                                        length=100000, seed=42))
    geom = CacheGeometry(256, 8)
    results = {}
    for name in ("hawkeye", "ehc"):
        stats, events, _ = run_policy(trace, name, geom, record_events=True)
        rank = mean_rank(victim_quality(events, trace, geom))
        results[name] = (mpki(stats, trace.instruction_count), rank)
    assert results["ehc"][0] <= results["hawkeye"][0] * 0.99
    assert results["ehc"][1] <= results["hawkeye"][1]
    assert time.monotonic() - t0 < 60.0


def test_c08_hitcount_error_concentrates_at_zero():
    # phased loops: each phase refills the other phase's blocks, so every
    # block completes many equal-hit-count residencies under MIN
    geom = CacheGeometry(16, 4)
    addrs = []
    for phase in range(12):
        base = 0 if phase % 2 == 0 else 60 * 64
        for _ in range(5):
            addrs += [base + b * 64 for b in range(60)]
    trace = make_trace(addrs)
    _, _, residencies, _ = simulate_min(trace, geom, bypass=True)
    for hist in (per_block_prediction_error(residencies),
                 per_region_prediction_error(residencies)):
        assert hist.sum() > 0
        assert int(np.argmax(hist)) == 0
        assert hist[0] > hist[1:].sum()  # outright majority, not just a mode


def test_c09_cli_reruns_are_byte_identical(tmp_path):
    def series(tag):
        trace = tmp_path / f"t{tag}.trace"
        run_csv = tmp_path / f"run{tag}.csv"
        cmp_csv = tmp_path / f"cmp{tag}.csv"
        ana_csv = tmp_path / f"ana{tag}.csv"
        assert main(["gen", "--kind", "region", "--blocks", "512",
                     "--length", "2000", "--seed", "6", "-o", str(trace)]) == 0
        base = ["--trace", str(trace), "--sets", "64", "--ways", "4", "--seed", "5"]
        assert main(["run", *base, "--policy", "ehc", "--csv", str(run_csv)]) == 0
        assert main(["compare", *base, "--policies", "brrip,drrip,ehc",
                     "--csv", str(cmp_csv)]) == 0
        assert main(["analyze", *base, "--report", "victim-quality",
                     "--policy", "lru", "--csv", str(ana_csv)]) == 0
        return [p.read_bytes() for p in (trace, run_csv, cmp_csv, ana_csv)]

    assert series("a") == series("b")


def test_c10_counters_stay_in_range():
    events_per_policy = 150_000
    rng = np.random.default_rng(11)
    n = 4096
    blocks = rng.integers(0, 1 << 34, size=n)
    pcs = rng.integers(0, 1 << 30, size=n) * 4
    source = make_trace([(int(p), int(b) * 64) for p, b in zip(pcs, blocks)])
    addrs, pcs = source.addr.tolist(), source.pc.tolist()

    for name in POLICY_NAMES:
        geom = CacheGeometry(64, 4) if name == "drrip" else CacheGeometry(1, 4)
        policy = make_policy(name, geom, seed=9)
        ways = [BlockState() for _ in range(4)]
        for w in range(4):
            ways[w].valid = True
            ways[w].tag = w
            policy.on_insert(0, ways, w, addrs[w], pcs[w])

        kinds = rng.integers(0, 100, size=events_per_policy)
        hit_ways = rng.integers(0, 4, size=events_per_policy)
        sets = rng.integers(0, geom.num_sets, size=events_per_policy)
        for k in range(events_per_policy):
            addr, pc = addrs[k % n], pcs[k % n]
            si = int(sets[k])
            if kinds[k] < 30:
                policy.on_observe(geom.set_index(addr), geom.tag(addr), addr, pc)
                continue
            if kinds[k] < 60:
                way = int(hit_ways[k])
                ways[way].last_pc = pc
                policy.on_hit(si, ways, way, addr, pc)
                blk = ways[way]
                assert 0 <= blk.rrpv <= RRPV_MAX and 0 <= blk.efh <= EFH_MAX
            else:
                way, _ = policy.choose_victim(si, ways)
                if way != BYPASS:
                    blk = ways[way]
                    blk.tag = addr >> 6
                    blk.last_pc = pc
                    policy.on_insert(si, ways, way, addr, pc)
                for blk in ways:
                    assert 0 <= blk.rrpv <= RRPV_MAX and 0 <= blk.efh <= EFH_MAX
            if name == "drrip":
                assert 0 <= policy.psel <= PSEL_MAX
            if k % 10_000 == 0:
                if name == "ship":
                    assert int(policy.shct.max()) <= SHCT_MAX
                if name in ("hawkeye", "ehc"):
                    counters = policy.pc_table.counters
                    assert 0 <= min(counters) and max(counters) <= PC_COUNTER_MAX
                    for hist in policy.sampler.histories.values():
                        assert all(0 <= c <= 4 for c in hist.occ)
