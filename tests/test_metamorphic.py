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
  steers no policy, so passing it with ``ranks`` to the kernel leaves
  every built-in policy's stats and hit flags unchanged, and counts one
  rank per replacement.

All but the last hold on the native kernel and on the reference engine,
which has no ranks; the last holds on the kernel. They are checked over
the geometries and traces of ``conftest.traced_geometries``, with PCs
drawn from a small pool anywhere in the 64-bit range where the PC
matters.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ehcsim import CacheGeometry, Trace, _kernels, simulate_min
from ehcsim.runner import POLICY_NAMES, run_policy

from conftest import assert_same_array, assert_same_min, top_heavy, traced_geometries

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
    next_use = _kernels.next_use(trace, geom)
    for name in POLICY_NAMES:
        stats, _, flags = _kernels.run(trace, name, geom, seed)
        ranks = np.zeros(geom.associativity + 1, dtype=np.int64)
        ranked, _, ranked_flags = _kernels.run(trace, name, geom, seed, next_use=next_use,
                                               ranks=ranks)
        assert ranked == stats, name
        assert_same_array(ranked_flags, flags, name)
        assert int(ranks.sum()) == stats.replacements_total, name
