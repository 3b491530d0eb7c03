"""Property tests: both MIN backends, the prediction-error histograms and
victim scoring equal the loops, the native kernel equals the reference
engine (also with the trace's PCs renamed to share one SHCT or PC-table
entry), and its next use, prediction-error histograms and in-loop victim
ranks equal the numpy oracle's, every event log holds the residents of its
set, no policy beats MIN, unbounded OPTgen equals offline MIN, Hawkeye and
EHC share OPTgen's counters and every decision up to the first no-averse
replacement where their victims differ, a bijection of the PCs leaves
OPTgen's counters as they were, and traces survive their file format.

Geometries of 1-64 sets and 1-16 ways, short traces over byte addresses
anywhere in the 64-bit address space (two of three trace shapes crowd a
few sets so that they fill, evict and bypass), hand-made event logs
(bypass rows, residents of any block the trace touched before the event,
the empty log) and hand-made residency rows (ties in completion order,
shared blocks and regions) are checked against the per-access
implementations in ``loop_oracles``.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ehcsim import (
    _kernels,
    BYPASS,
    CacheGeometry,
    EventLog,
    ResidencyLog,
    SampledSetHistory,
    Trace,
    compute_next_use,
    per_block_prediction_error,
    per_region_prediction_error,
    read_trace,
    simulate_min,
    victim_quality,
    write_trace,
)
from ehcsim.runner import POLICY_NAMES, make_policy, pick_backend, run_policy
from ehcsim.engine import simulate
from ehcsim.minoracle import MinPolicy
from ehcsim.params import PC_TABLE_BITS, SHCT_BITS
from ehcsim.sampler import PcCounterTable, RegionHitTable
from ehcsim.trace import REGION_SHIFT

from conftest import (
    assert_same_array,
    assert_same_log,
    assert_same_min,
    columns_of,
    event_log,
    geometries,
    make_trace,
    residency_log,
    top_heavy,
    traced_geometries,
)
from loop_oracles import (
    Event,
    Residency,
    loop_next_use,
    loop_prediction_error,
    loop_simulate_min,
    loop_victim_quality,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(traced_geometries(max_len=40))
def test_next_use_matches_loop(case):
    geom, trace = case
    assert compute_next_use(trace, geom).tolist() == loop_next_use(trace, geom).tolist()


@st.composite
def offset_traces(draw, max_len=60):
    """A geometry of 1-64 sets and 1-8 ways whose block offset is 1-70 bits
    (64 or more puts every address in block 0), and a trace over at most 12
    addresses anywhere in the 64-bit space, so that blocks repeat."""
    geom = CacheGeometry(1 << draw(st.integers(0, 6)), draw(st.integers(1, 8)),
                         draw(st.sampled_from([1, 6, 17, 63, 64, 70])))
    pool = draw(st.lists(top_heavy(64), min_size=1, max_size=12, unique=True))
    return geom, make_trace(draw(st.lists(st.sampled_from(pool), max_size=max_len)))


@PROPERTY_SETTINGS
@given(st.one_of(traced_geometries(max_len=60), offset_traces()))
def test_kernel_next_use_matches_numpy_and_loop(case):
    geom, trace = case
    want = loop_next_use(trace, geom)
    assert_same_array(compute_next_use(trace, geom), want, "numpy next use")
    got = _kernels.next_use(trace, geom)
    assert got.dtype == np.int64
    assert_same_array(got, want, "kernel next use")
    assert_same_array(list(_kernels.next_use(columns_of(trace), geom)), want,
                      "kernel next use over memoryview columns")


@PROPERTY_SETTINGS
@given(st.one_of(traced_geometries(max_len=120), offset_traces(max_len=120)))
def test_kernel_prediction_error_matches_numpy(case):
    # The kernel's histograms over its own MIN rows against the numpy
    # histograms over the reference engine's residencies.
    geom, trace = case
    for bypass in (False, True):
        residencies = simulate_min(trace, geom, bypass=bypass, backend="reference")[2]
        stats, _, _, rows, _ = _kernels.run(trace, "min", geom, 0,
                                            next_use=_kernels.next_use(trace, geom),
                                            bypass=bypass, rows=True)
        count = len(rows) // len(_kernels._ROW_FIELDS)
        assert count == stats.misses - stats.per_policy["bypasses"]
        assert_same_array(rows.reshape(count, len(_kernels._ROW_FIELDS)).T,
                          [residencies.fill, residencies.end, residencies.hits], "rows")
        for by_region, histogram in ((False, per_block_prediction_error),
                                     (True, per_region_prediction_error)):
            want = histogram(residencies).tolist()
            assert _kernels.prediction_error(trace, geom, rows, by_region) == want


@PROPERTY_SETTINGS
@given(traced_geometries(max_len=120))
def test_simulate_min_matches_loop(case):
    geom, trace = case
    for bypass in (False, True):
        o_stats, o_decisions, o_residencies, o_events = loop_simulate_min(trace, geom, bypass)
        expected = (
            o_stats, o_decisions, residency_log(o_residencies),
            event_log(o_events, geom.associativity),
        )
        ranks = loop_victim_quality(o_events, trace, geom)
        for backend in ("kernel", "reference"):
            got = simulate_min(trace, geom, bypass=bypass, record_events=True, backend=backend)
            assert isinstance(got[2], ResidencyLog) and isinstance(got[3], EventLog)
            assert_same_min(got, expected)
            assert_same_array(victim_quality(got[3], trace, geom), ranks, "victim ranks")
            no_log = simulate_min(trace, geom, bypass=bypass, backend=backend)
            assert no_log[0] == got[0] and no_log[3] is None
            assert_same_log(no_log[2], got[2], "residencies without events")


@st.composite
def residency_lists(draw):
    """Residency records that need not come from any run: blocks in two
    128 KB regions anywhere in the 64-bit space, completion-order ties,
    and hit counts large enough to reach the last bucket."""
    regions = draw(st.lists(st.integers(0, (1 << (64 - REGION_SHIFT)) - 1),
                            min_size=1, max_size=2, unique=True))
    blocks = draw(st.lists(
        st.builds(lambda r, b: (r << REGION_SHIFT) | (b << 6),
                  st.sampled_from(regions), st.integers(0, 7)),
        min_size=1, max_size=5))
    record = st.builds(
        Residency, addr=st.sampled_from(blocks), fill=st.integers(0, 6),
        end=st.integers(0, 6), hits=st.integers(0, 12),
    )
    return draw(st.lists(record, max_size=40))


@PROPERTY_SETTINGS
@given(residency_lists())
def test_prediction_error_matches_loop(records):
    log = residency_log(records)
    assert list(zip(log.addr.tolist(), log.fill.tolist(), log.end.tolist(),
                    log.hits.tolist())) == records
    for histogram, key in ((per_block_prediction_error, lambda r: r.addr),
                           (per_region_prediction_error, lambda r: r.addr >> REGION_SHIFT)):
        expected = loop_prediction_error(records, key)
        assert_same_array(histogram(log), expected, histogram.__name__)


@st.composite
def event_logs(draw):
    """A trace plus replacement events that need not come from any run:
    residents of any block touched before the event other than the
    incoming one (of any set, or repeated), bypass rows and the empty log
    all occur. Each resident position is its block's latest access before
    the event, as a recorded log holds."""
    geom, trace = draw(traced_geometries(max_len=40))
    assoc = geom.associativity
    blocks = (trace.addr >> np.uint64(geom.block_offset_bits)).tolist()
    events = []
    for _ in range(draw(st.integers(0, 20)) if len(trace) else 0):
        index = draw(st.integers(0, len(trace) - 1))
        latest = {blocks[p]: p for p in range(index)}  # each block's latest access
        latest.pop(blocks[index], None)                # a hit, not a replacement
        if not latest:
            continue
        events.append(Event(
            index=index,
            victim_way=draw(st.sampled_from([BYPASS, *range(assoc)])),
            no_averse=draw(st.booleans()),
            resident_pos=tuple(draw(st.lists(st.sampled_from(sorted(latest.values())),
                                              min_size=assoc, max_size=assoc))),
        ))
    return geom, trace, events


@PROPERTY_SETTINGS
@given(event_logs())
def test_victim_quality_matches_loop(case):
    geom, trace, events = case
    expected = loop_victim_quality(events, trace, geom).tolist()
    log = event_log(events, geom.associativity)
    assert list(zip(log.index.tolist(), log.victim_way.tolist(), log.no_averse.tolist(),
                    map(tuple, log.resident_pos.tolist()))) == events
    assert victim_quality(log, trace, geom).tolist() == expected


@st.composite
def crowded_traces(draw):
    """A geometry of 1-64 sets and 1-16 ways and a trace whose blocks crowd
    at most three sets (often the sampled set 0), so even 16-way sets fill
    and evict. Tags and PCs span the whole 64-bit range; an access is any
    (PC, block) pair."""
    geom = draw(geometries(max_set_bits=6, max_ways=16))
    sets = draw(st.lists(st.one_of(st.just(0), st.integers(0, geom.num_sets - 1)),
                         min_size=1, max_size=3))
    tag_bits = 64 - geom.block_offset_bits - geom.set_bits
    tags = draw(st.lists(st.integers(0, (1 << tag_bits) - 1),
                         min_size=geom.associativity + 1,
                         max_size=2 * geom.associativity + 2, unique=True))
    blocks = [geom.block_addr(s, t) for s in sets for t in tags]
    pcs = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=4))
    accesses = draw(st.lists(st.sampled_from([(p, b) for p in pcs for b in blocks]),
                             min_size=min(3 * len(blocks), 300), max_size=300))
    return geom, make_trace(accesses)


def _assert_residents_of_the_event_set(log, trace, geom):
    """Every resident position precedes its event's, and the residents are
    distinct blocks of the incoming block's set, none of them that block."""
    blocks = trace.addr >> np.uint64(geom.block_offset_bits)
    incoming, resident = blocks[log.index], blocks[log.resident_pos]
    set_mask = np.uint64(geom.num_sets - 1)
    assert (log.resident_pos < log.index[:, None]).all()
    assert ((resident & set_mask) == (incoming & set_mask)[:, None]).all()
    assert (resident != incoming[:, None]).all()
    by_block = np.sort(resident, axis=1)
    assert (by_block[:, 1:] != by_block[:, :-1]).all()


#: Renamings of a trace's k-th distinct PC that make its PCs collide in
#: ``xor_fold``: ``k << bits | k`` folds to 0, so every PC shares SHiP's
#: SHCT entry 0, or Hawkeye's and EHC's PC-table entry 0.
_COLLIDING_PCS = (lambda k: k << SHCT_BITS | k, lambda k: k << PC_TABLE_BITS | k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(crowded_traces(), st.sampled_from(POLICY_NAMES))
def test_kernel_events_match_reference(case, name):
    # The kernel, the reference backend and auto give the engine's run, on
    # the drawn trace and with its PCs renamed to share one predictor entry.
    geom, drawn = case
    for trace in [drawn, *(_renamed_pcs(drawn, rename) for rename in _COLLIDING_PCS)]:
        r_stats, r_log, r_flags = simulate(trace, make_policy(name, geom), geom,
                                           record_events=True, check=True)
        for stats, log, flags in [
                run_policy(trace, name, geom, backend="kernel", record_events=True),
                run_policy(trace, name, geom, backend="reference", record_events=True),
                run_policy(trace, name, geom)]:
            assert stats == r_stats
            assert_same_array(flags, r_flags, "hit flags")
            if log is not None:
                assert_same_log(log, r_log, "events")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(crowded_traces(), st.sampled_from(POLICY_NAMES))
def test_kernel_ranks_match_victim_quality_of_the_event_log(case, name):
    # Ranking in the loop changes nothing of the run, and gives the
    # histogram victim_quality makes of the same run's event log.
    geom, trace = case
    stats, log, flags, _, ranks = _kernels.run(trace, name, geom, 42, record_events=True,
                                               next_use=_kernels.next_use(trace, geom))
    assert_same_array(ranks, victim_quality(log, trace, geom), "in-loop ranks")
    _assert_residents_of_the_event_set(log, trace, geom)
    plain_stats, _, plain_flags, _, _ = _kernels.run(trace, name, geom, 42)
    assert stats == plain_stats
    assert_same_array(flags, plain_flags, "hit flags")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(crowded_traces(), st.sampled_from(POLICY_NAMES))
def test_every_event_log_holds_the_residents_of_its_set(case, name):
    # All four producers: the kernel, the engine, and MIN on either backend.
    geom, trace = case
    for backend in ("kernel", "reference"):
        _, log, _ = run_policy(trace, name, geom, backend=backend, record_events=True)
        _assert_residents_of_the_event_set(log, trace, geom)
        assert victim_quality(log, trace, geom).sum() == len(log)
        for bypass in (False, True):
            log = simulate_min(trace, geom, bypass=bypass, record_events=True,
                               backend=backend)[3]
            _assert_residents_of_the_event_set(log, trace, geom)
            ranks = victim_quality(log, trace, geom)
            # MIN evicts the farthest resident; only an incoming block it
            # does not bypass can be farther still.
            worst = 0 if bypass else 1
            assert ranks.sum() == len(log) and not ranks[worst + 1:].any()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(crowded_traces())
def test_policies_never_beat_min(case):
    # Every policy inserts on every miss, so MIN without bypass bounds it;
    # MIN with bypass may also skip an insertion, so it bounds both.
    geom, trace = case
    nobypass, _, _, _ = simulate_min(trace, geom, bypass=False)
    bypass, _, _, _ = simulate_min(trace, geom, bypass=True)
    assert nobypass.hits <= bypass.hits
    # The engine's per-access checks hold after a bypass too.
    checked, _, _ = simulate(trace, MinPolicy(compute_next_use(trace, geom), bypass=True), geom,
                             check=True)
    assert checked == bypass
    for name in POLICY_NAMES:
        stats, _, _ = run_policy(trace, name, geom)
        assert stats.hits <= nobypass.hits, name


@st.composite
def single_set_traces(draw):
    """A geometry of 1-64 sets and 1-16 ways and a trace confined to set 0
    over at most 3 x ways + 2 tags spanning the 64-bit range; an access is
    any (PC, block) pair."""
    geom = draw(geometries(max_set_bits=6, max_ways=16))
    tag_bits = 64 - geom.block_offset_bits - geom.set_bits
    tags = draw(st.lists(st.integers(0, (1 << tag_bits) - 1), min_size=1,
                         max_size=3 * geom.associativity + 2, unique=True))
    pcs = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=4))
    blocks = [geom.block_addr(0, t) for t in tags]
    accesses = draw(st.lists(st.sampled_from([(p, b) for p in pcs for b in blocks]),
                             max_size=200))
    return geom, make_trace(accesses)


@PROPERTY_SETTINGS
@given(single_set_traces())
def test_unbounded_optgen_matches_min(case):
    geom, trace = case
    hist = SampledSetHistory(geom.associativity, PcCounterTable(), RegionHitTable())
    got = [int(hist.access(geom.tag(a), p, a))
           for a, p in zip(trace.addr.tolist(), trace.pc.tolist())]
    _, decisions, _, _ = simulate_min(trace, geom, bypass=True)
    assert got == decisions.tolist()


def _hawkeye_and_ehc(case, backend, record_events=False):
    """Hawkeye's and EHC's ``run`` results on the backend that
    :func:`pick_backend` gives for ``backend``."""
    geom, trace = case
    lib = pick_backend(backend, geom)
    return [lib.run(trace, name, geom, 42, record_events=record_events)
            for name in ("hawkeye", "ehc")]


@PROPERTY_SETTINGS
@given(st.one_of(crowded_traces(), single_set_traces()))
def test_hawkeye_and_ehc_report_equal_optgen_counters(case):
    # OPTgen follows the sampled sets' accesses, not the cache's decisions.
    for backend in ("kernel", "reference"):
        hawkeye, ehc = ([stats.per_policy[k] for k in _kernels._OPTGEN]
                        for stats, *_ in _hawkeye_and_ehc(case, backend))
        assert ehc == hawkeye, backend


def _renamed_pcs(trace, rename):
    """``trace`` with its k-th distinct PC, in order of first access,
    replaced by ``rename(k)``, a one-to-one renaming of its PCs."""
    names = {}
    for pc in trace.pc.tolist():
        names.setdefault(pc, rename(len(names)))
    return make_trace([(names[pc], a) for pc, a in zip(trace.pc.tolist(), trace.addr.tolist())])


@PROPERTY_SETTINGS
@given(st.one_of(crowded_traces(), single_set_traces()))
def test_a_bijection_of_the_pcs_leaves_the_optgen_counters(case):
    # OPTgen decides on the sampled sets' blocks alone; the PCs only name
    # the predictor entries its decisions train. Renamed so that every PC
    # has an entry of its own (PC k folds to k), or so that all share entry
    # 0 (k << PC_TABLE_BITS | k folds to 0), a trace gives the same counters.
    geom, trace = case
    traces = [trace, _renamed_pcs(trace, lambda k: k),
              _renamed_pcs(trace, lambda k: k << PC_TABLE_BITS | k)]
    for backend in ("kernel", "reference"):
        first, *renamed = ([[stats.per_policy[k] for k in _kernels._OPTGEN]
                            for stats, *_ in _hawkeye_and_ehc((geom, t), backend)]
                           for t in traces)
        assert renamed == [first, first], backend


@PROPERTY_SETTINGS
@given(st.one_of(crowded_traces(), single_set_traces()))
def test_ehc_runs_as_hawkeye_up_to_a_no_averse_replacement(case):
    # Only a no-averse victim reads EHC's expected hits, so the two make the
    # same decisions up to the first no-averse replacement where EHC evicts
    # another way: that one has the same miss and residents. Every PC starts
    # friendly, so the first replacement of a run is no-averse; checking to
    # the first differing victim rather than to the first no-averse one
    # reaches past it.
    for backend in ("kernel", "reference"):
        (_, hawkeye, h_flags, *_), (_, ehc, e_flags, *_) = _hawkeye_and_ehc(case, backend, True)
        n = min(len(hawkeye), len(ehc))
        same = ((ehc.index[:n] == hawkeye.index[:n])
                & (ehc.victim_way[:n] == hawkeye.victim_way[:n])
                & (ehc.no_averse[:n] == hawkeye.no_averse[:n])
                & (ehc.resident_pos[:n] == hawkeye.resident_pos[:n]).all(axis=1))
        k = int(np.argmin(same)) if not same.all() else n
        if k == n:
            assert len(ehc) == len(hawkeye), backend
            end = len(h_flags)
        else:
            assert hawkeye.no_averse[k] and ehc.no_averse[k], (backend, k)
            assert ehc.index[k] == hawkeye.index[k], (backend, k)
            assert_same_array(ehc.resident_pos[k], hawkeye.resident_pos[k], f"{backend} residents")
            end = int(hawkeye.index[k]) + 1
        assert_same_array(e_flags[:end], h_flags[:end], f"{backend} hit flags")


U64 = st.integers(0, (1 << 64) - 1)


@st.composite
def traces(draw):
    """Any trace the file format can hold: seq, pc and addr over the full
    u64 range, cores 0-254, kinds 0-1, and any instruction count."""
    rows = draw(st.lists(
        st.tuples(U64, U64, U64, st.integers(0, 254), st.integers(0, 1)), max_size=40,
    ))
    columns = list(zip(*rows)) or [()] * 5
    return Trace(*columns, instruction_count=draw(st.one_of(st.none(), U64)))


@PROPERTY_SETTINGS
@given(traces())
@example(Trace([], [], [], [], []))
@example(Trace([(1 << 64) - 1], [(1 << 64) - 1], [(1 << 64) - 1], [254], [1]))
@example(Trace([3, 1, 2], [0, 4, 8], [64, 128, 64], [0, 7, 254], [0, 1, 0],
               instruction_count=0))
def test_trace_file_round_trip(trace):
    assert read_trace(write_trace(trace)) == trace
