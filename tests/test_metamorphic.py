"""Metamorphic properties: relations between two runs of one backend that
hold by construction, so they need no second implementation to check
against and would catch a misreading that the kernel and the reference
engine share.

- Causality: no online policy reads the future, so the hit flags of a
  trace's prefix are the prefix of the trace's hit flags.
- PC invariance: LRU, the RRIP family and Belady's MIN never read the PC,
  so replacing every PC leaves their results unchanged.
- Residency sum: every MIN hit falls within one residency, so the hits
  of MIN's residency rows sum to MIN's hits, with and without bypass.
- Inclusion: LRU and MIN without bypass are stack algorithms, so their
  hits never fall as ways grow at a fixed number of sets.
- Ranks without effect: ranking victims reads the next-use column but
  steers no policy, so passing that column to a backend's ``run`` leaves
  every built-in policy's stats and hit flags unchanged, and counts one
  rank per replacement.
- Tag bijection: LRU, the RRIP family and MIN compare tags only for
  equality within a set, so mapping each block to another block of the
  same set, one to one, leaves their results unchanged.

All hold on the native kernel and on the reference engine, and are
checked over the geometries and traces of ``conftest.traced_geometries``,
with PCs drawn from a small pool anywhere in the 64-bit range where the PC
matters.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ehcsim import CacheGeometry, Trace, simulate_min
from ehcsim.runner import POLICY_NAMES, pick_backend, run_policy

from conftest import (
    assert_same_array, assert_same_log, assert_same_min, top_heavy, traced_geometries,
)

BACKENDS = ("kernel", "reference")
PC_BLIND = ("lru", "srrip", "brrip", "drrip")
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def pc_columns(length):
    """``length`` PCs drawn from a pool of one to four."""
    return st.lists(top_heavy(64), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=length, max_size=length))


def with_pcs(trace, pcs, end=None):
    """The first ``end`` accesses of ``trace`` (all by default), with ``pcs``
    as their PCs."""
    n = len(trace) if end is None else end
    return Trace(trace.seq[:n], pcs[:n], trace.addr[:n], trace.core[:n], trace.kind[:n])


@st.composite
def cut_traces(draw):
    """A geometry, a trace with drawn PCs, and a cut point within it."""
    geom, trace = draw(traced_geometries(max_len=60))
    trace = with_pcs(trace, draw(pc_columns(len(trace))))
    return geom, trace, draw(st.integers(0, len(trace)))


@st.composite
def retagged_traces(draw):
    """A geometry, a trace, and the trace with each of its tags replaced by
    a drawn one, distinct tags by distinct ones: each block maps to another
    block of its set, one to one. Sets and byte offsets stay."""
    geom, trace = draw(traced_geometries(max_len=60))
    low = geom.block_shift + geom.set_bits
    tags = sorted({a >> low for a in trace.addr.tolist()})
    images = draw(st.lists(top_heavy(64 - low), min_size=len(tags), max_size=len(tags),
                           unique=True))
    mapped = dict(zip(tags, images))
    addr = [mapped[a >> low] << low | a & ((1 << low) - 1) for a in trace.addr.tolist()]
    return geom, trace, Trace(trace.seq, trace.pc, np.array(addr, dtype=np.uint64),
                              trace.core, trace.kind)


@st.composite
def repainted_traces(draw):
    """A geometry and one trace under two drawn PC columns."""
    geom, trace = draw(traced_geometries(max_len=60))
    return geom, *(with_pcs(trace, draw(pc_columns(len(trace)))) for _ in range(2))


@SETTINGS
@given(cut_traces())
def test_hit_flags_of_a_prefix_are_the_prefix_of_the_hit_flags(case):
    geom, trace, cut = case
    prefix = with_pcs(trace, trace.pc, cut)
    for backend in BACKENDS:
        for name in POLICY_NAMES:
            _, _, flags = run_policy(trace, name, geom, backend=backend)
            _, _, head = run_policy(prefix, name, geom, backend=backend)
            assert_same_array(head, flags[:cut], f"{name} on {backend}")


@SETTINGS
@given(repainted_traces())
def test_pc_blind_policies_and_min_ignore_the_pc(case):
    geom, trace, repainted = case
    for backend in BACKENDS:
        for name in PC_BLIND:
            stats, _, flags = run_policy(trace, name, geom, backend=backend)
            other_stats, _, other_flags = run_policy(repainted, name, geom, backend=backend)
            assert other_stats == stats, (name, backend)
            assert_same_array(other_flags, flags, f"{name} on {backend}")
        for bypass in (False, True):
            assert_same_min(simulate_min(repainted, geom, bypass=bypass, backend=backend),
                            simulate_min(trace, geom, bypass=bypass, backend=backend))


@SETTINGS
@given(retagged_traces())
def test_pc_blind_policies_and_min_ignore_a_bijection_of_tags_within_a_set(case):
    geom, trace, retagged = case
    for backend in BACKENDS:
        for name in PC_BLIND:
            stats, _, flags = run_policy(trace, name, geom, backend=backend)
            other_stats, _, other_flags = run_policy(retagged, name, geom, backend=backend)
            assert other_stats == stats, (name, backend)
            assert_same_array(other_flags, flags, f"{name} on {backend}")
        for bypass in (False, True):
            got = simulate_min(retagged, geom, bypass=bypass, record_events=True,
                               backend=backend)
            want = simulate_min(trace, geom, bypass=bypass, record_events=True,
                                backend=backend)
            assert got[0] == want[0], (backend, bypass)
            assert_same_array(got[1], want[1], f"decisions on {backend}")
            # The same stays, of the mapped blocks: only the addresses differ.
            for column in ("fill", "end", "hits"):
                assert_same_array(getattr(got[2], column), getattr(want[2], column), column)
            assert_same_log(got[3], want[3], f"events on {backend}")


@SETTINGS
@given(traced_geometries(max_len=60))
def test_min_residency_hits_sum_to_min_hits(case):
    geom, trace = case
    for backend in BACKENDS:
        for bypass in (False, True):
            stats, _, residencies, _ = simulate_min(trace, geom, bypass=bypass,
                                                    backend=backend)
            assert int(residencies.hits.sum()) == stats.hits, (backend, bypass)


@SETTINGS
@given(traced_geometries(max_len=60))
def test_lru_and_min_hits_never_fall_as_ways_grow(case):
    geom, trace = case
    for backend in BACKENDS:
        for sets in (1, 16):
            lru, opt = [], []
            for ways in range(1, 17):
                grown = CacheGeometry(sets, ways, geom.block_offset_bits)
                lru.append(run_policy(trace, "lru", grown, backend=backend)[0].hits)
                opt.append(simulate_min(trace, grown, bypass=False, backend=backend)[0].hits)
            assert lru == sorted(lru), (backend, sets, lru)
            assert opt == sorted(opt), (backend, sets, opt)


@SETTINGS
@given(traced_geometries(max_len=60), st.integers(0, (1 << 64) - 1))
def test_ranking_victims_changes_no_policy(case, seed):
    geom, trace = case
    for backend in BACKENDS:
        lib = pick_backend(backend, geom)
        next_use = lib.next_use(trace, geom)
        for name in POLICY_NAMES:
            stats, _, flags, _, _ = lib.run(trace, name, geom, seed)
            ranked, _, ranked_flags, _, ranks = lib.run(trace, name, geom, seed,
                                                        next_use=next_use)
            assert ranked == stats, (name, backend)
            assert_same_array(ranked_flags, flags, f"{name} on {backend}")
            assert len(ranks) == geom.associativity + 1, (name, backend)
            assert sum(ranks) == stats.replacements_total, (name, backend)
