"""The native kernel must reproduce the reference engine bit for bit, and
fall back to it when the kernel cannot be built."""

import csv
import hashlib
import io
import os
import sysconfig
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from ehcsim import (
    BYPASS, CacheGeometry, EventLog, GeneratorSpec, analyze, compare, compute_next_use,
    gen_synthetic, run_report, save_trace, simulate, simulate_min,
)
from ehcsim import _kernel_build, _kernels, engine, minoracle, params, policies, runner, sampler
from ehcsim import trace as trace_module
from ehcsim.engine import DEFAULT_GEOMETRY
from ehcsim.analysis import REPORT_KINDS
from ehcsim.errors import GeometryTooLarge, UnknownPolicy, UsageError
from ehcsim.minoracle import NO_NEXT_USE
from ehcsim.runner import POLICY_NAMES, make_policy, run_policy

from conftest import (
    LOG_COLUMNS, assert_same_array, assert_same_log, assert_same_min, columns_of, make_trace,
    random_trace, traced_geometries,
)
from loop_oracles import loop_simulate_min

TRACES = {
    "zipf": GeneratorSpec("zipf", block_count=400, length=2500, seed=3),
    "region": GeneratorSpec("region", block_count=1024, length=2500, seed=4),
    "mixed": GeneratorSpec("mixed", block_count=512, length=2500, seed=2),
}


def _assert_same_run(trace, name, geom, **kw):
    columns = [c.copy() for c in (trace.seq, trace.pc, trace.addr, trace.core, trace.kind)]
    k_stats, k_none, k_flags = run_policy(
        trace, name, geom, backend="kernel", **kw
    )
    assert k_none is None
    assert isinstance(k_flags, np.ndarray)
    assert k_flags.dtype == np.uint8 and k_flags.shape == (len(trace),)
    # Recording events must not change the run.
    e_stats, k_log, e_flags = run_policy(
        trace, name, geom, backend="kernel", record_events=True, **kw
    )
    for before, after in zip(columns, (trace.seq, trace.pc, trace.addr,
                                       trace.core, trace.kind)):
        assert np.array_equal(before, after)
    policy = make_policy(name, geom, seed=kw.get("seed", 42))
    r_stats, r_log, r_flags = simulate(trace, policy, geom, record_events=True, check=True)
    assert k_stats == e_stats == r_stats
    assert r_flags.dtype == np.uint8
    assert_same_array(k_flags, r_flags, "hit flags")
    assert_same_array(e_flags, r_flags, "hit flags with events")
    assert isinstance(k_log, EventLog) and isinstance(r_log, EventLog)
    assert len(k_log) == r_stats.replacements_total
    assert_same_log(k_log, r_log, "events")


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("workload", sorted(TRACES))
def test_kernel_matches_reference(policy, workload):
    trace = gen_synthetic(TRACES[workload])
    _assert_same_run(trace, policy, CacheGeometry(64, 4))


@pytest.mark.parametrize("policy", ["drrip", "ship", "ehc"])
def test_kernel_matches_reference_wide(policy):
    trace = gen_synthetic(TRACES["mixed"])
    _assert_same_run(trace, policy, CacheGeometry(256, 8))


def test_kernel_random_traces(rng):
    geom = CacheGeometry(4, 2)
    for _ in range(10):
        trace = random_trace(rng, length=int(rng.integers(50, 300)),
                             num_blocks=int(rng.integers(2, 30)))
        for policy in POLICY_NAMES:
            _assert_same_run(trace, policy, geom)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_kernel_matches_reference_default_geometry(policy, rng):
    # 2048 x 16 with 40 tags in each of the sampled sets 0 and 64, the DRRIP
    # leader sets 0 and 33, and set 2047, so every set fills and evicts.
    geom = DEFAULT_GEOMETRY
    sets = rng.choice([0, 33, 64, 2047], size=3000)
    tags = rng.integers(0, 40, size=3000)
    pcs = rng.integers(0, 6, size=3000) * 4 + 0x400000
    trace = make_trace([(int(p), geom.block_addr(int(s), int(t)))
                        for p, s, t in zip(pcs, sets, tags)])
    _assert_same_run(trace, policy, geom)


def test_kernel_matches_reference_near_int64_limit(rng):
    # Addresses and PCs just below 2**62: every PC hash and region id folds
    # many bits, and set/tag math runs near the top of signed 64-bit space.
    geom = CacheGeometry(4, 2)
    top = 1 << 62
    blocks = rng.integers(1, 40, size=400)
    pcs = rng.integers(1, 5, size=400)
    trace = make_trace([(top - 4 * int(p), top - 64 * int(b) + 7)
                        for p, b in zip(pcs, blocks)])
    for policy in POLICY_NAMES:
        _assert_same_run(trace, policy, geom)


@pytest.mark.parametrize("geom", [
    CacheGeometry(4, 2), CacheGeometry(64, 4), CacheGeometry(2, 2, 64), CacheGeometry(2, 2, 70),
])
def test_kernel_matches_reference_full_64bit_range(geom, rng):
    # The kernel is unsigned: addresses and PCs up to 2**64 - 1, with the
    # top bit set, hash, index and report like the reference engine's. With
    # 64 or more offset bits every address falls in block 0, as in Python.
    top = (1 << 64) - 1
    blocks = rng.integers(0, 300, size=1500)
    pcs = rng.integers(0, 5, size=1500)
    trace = make_trace([(top - 4 * int(p), top - 64 * int(b))
                        for p, b in zip(pcs, blocks)])
    assert int(trace.addr.max()) == top and int(trace.pc.max()) == top
    for policy in POLICY_NAMES:
        _assert_same_run(trace, policy, geom)


def test_kernel_seed_changes_brrip():
    trace = gen_synthetic(TRACES["zipf"])
    geom = CacheGeometry(64, 4)
    a, _, _ = run_policy(trace, "brrip", geom, seed=1, backend="kernel")
    b, _, _ = run_policy(trace, "brrip", geom, seed=2, backend="kernel")
    assert a.per_policy["long_inserts"] != b.per_policy["long_inserts"]


@pytest.mark.parametrize("seed", [0, -1, 1 << 63, (1 << 64) + 5])
@pytest.mark.parametrize("policy", ["brrip", "drrip"])
def test_kernel_brrip_hash_matches_reference(policy, seed):
    # The kernel computes the bimodal draws from the seed itself, modulo
    # 2**64 as brrip_long_insert does.
    trace = gen_synthetic(TRACES["zipf"])
    _assert_same_run(trace, policy, CacheGeometry(64, 4), seed=seed)


def test_kernel_header_holds_the_constants_the_python_policies_use():
    defines = dict(line.split()[1:] for line in _kernels._header().splitlines())
    checked = set()
    for name, value in defines.items():
        for module in (engine, trace_module, policies, sampler):
            if hasattr(module, name):
                assert value.removesuffix("ULL") == str(getattr(module, name)), name
                checked.add(name)
    assert len(checked) == 29, sorted(checked)
    # Every integer of params, with its value; 2^63 and more unsigned.
    for name, value in vars(params).items():
        if name.isupper() and type(value) is int:
            want = f"{value}ULL" if value >= 1 << 63 else str(value)
            assert defines[name] == want, name
    # The oracle's sentinel and bucket count, which the kernel writes.
    for name in ("NO_NEXT_USE", "ERROR_BUCKETS"):
        assert defines[name] == str(getattr(minoracle, name)), name
    # The kernel reads each record field at the offset numpy reads it at.
    for name, (_, offset) in trace_module.RECORD_DTYPE.fields.items():
        assert defines[f"RECORD_{name.upper()}"] == str(offset), name
    assert _kernels._source()[0] == _kernels._header() + Path(_kernels._SOURCE).read_text()
    # The header is part of the library's name, so a change to it is a
    # change to the kernel that rebuilds every cached library.
    digest = hashlib.blake2b(_kernels._header().encode(), digest_size=12).hexdigest()
    assert digest == "b2fa8372784b78fa11bb3b84"


def test_kernel_binding_checks_numpy_arrays_per_call():
    # As numpy.ctypeslib.ndpointer did: the element type and C order of
    # every array, before the kernel runs; and that an output is writable
    # and holds what the call writes.
    lib = _kernels._library()
    good = np.zeros(4, dtype=np.uint64)
    state = np.zeros(_kernels._READ_STATE_WORDS, dtype=np.uint64)
    read_only = np.zeros(4, dtype=np.uint64)
    read_only.flags.writeable = False
    for bad, why in ((np.zeros(4, dtype=np.int64), "data type uint64"),
                     (np.zeros(8, dtype=np.uint64)[::2], "C_CONTIGUOUS"),
                     (memoryview(bytearray(32)).cast("q"), "data type uint64"),
                     (bytearray(32), "data type uint64"),
                     ([0, 0, 0, 0], "data type uint64"),
                     (read_only, "WRITEABLE"),
                     (memoryview(bytes(32)).cast("Q"), "WRITEABLE")):
        with pytest.raises(TypeError, match=why):
            lib.ehcsim_read_records(0, b"", 0, good, bad, state)
        with pytest.raises(TypeError, match=why):
            lib.ehcsim_read_records(0, b"", 0, good, good, bad)
    # Signedness either way: an unsigned next-use column.
    with pytest.raises(TypeError, match="data type int64"):
        lib.ehcsim_next_use(4, good, 0, np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError, match="must hold 4 elements, not 3"):
        lib.ehcsim_next_use(4, good, 0, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match=f"must hold {_kernels._READ_STATE_WORDS} elements"):
        lib.ehcsim_read_records(0, b"", 0, good, good, good)
    columns = memoryview(bytearray(32)).cast("Q")
    assert lib.ehcsim_read_records(0, b"", 0, good, columns, state) == (0, 0)
    # The room of MIN's residency rows, of the rows a histogram reads and of
    # the counters, each from a layout that _kernels states: one element
    # short is refused, and the exact room runs.
    width, counters = len(_kernels._ROW_FIELDS), len(_kernels._COUNTERS)
    next_use = np.array([2, 3, NO_NEXT_USE, NO_NEXT_USE], dtype=np.int64)
    hist = np.zeros(params.ERROR_BUCKETS, dtype=np.int64)

    def ints(size):
        return np.zeros(size, dtype=np.int64)

    def simulate(rows, out):
        return lib.ehcsim_simulate(4, good, good, 1, 1, 0, _kernels._POLICY_IDS["min"], 0,
                                   next_use, 0, rows, None, None, bytearray(4), out)

    for call, need in ((lambda size: simulate(ints(size), ints(counters)), 4 * width),
                       (lambda size: simulate(None, ints(size)), counters),
                       (lambda size: lib.ehcsim_prediction_error(2, 4, ints(size), good, 0, 0,
                                                                 hist), 2 * width)):
        with pytest.raises(ValueError, match=f"^array must hold {need} elements, not {need - 1}$"):
            call(need - 1)
        assert call(need) == 0


def test_run_policy_rejects_unknown_policies_on_every_backend():
    trace = make_trace([0x40, 0x80])
    for backend in _kernels.BACKENDS:
        with pytest.raises(UnknownPolicy, match="unknown policy 'belady'"):
            run_policy(trace, "belady", CacheGeometry(2, 2), backend=backend)
    # Each backend's own run, which analysis calls directly, says the same.
    for lib in (_kernels, minoracle):
        with pytest.raises(UnknownPolicy, match=r"^unknown policy 'nope' \(choose from lru, "):
            lib.run(trace, "nope", CacheGeometry(2, 2), 0)
    # That run takes "min" for MIN, so each report checks the names it is
    # given before it runs one, with the kernel and without it.
    reports = {
        "min": [lambda: run_report(trace, "min", CacheGeometry(2, 2)),
                lambda: compare(trace, ["ehc", "min"], CacheGeometry(2, 2))],
        "bogus": [lambda kind=kind: analyze(trace, kind, "bogus", CacheGeometry(2, 2))
                  for kind in ("hitcount-block", "hitcount-region")],
    }
    runs = []

    def record(trace, name, *args, **kw):
        runs.append(name)

    for native in (_kernels._native, lambda: (None, "disabled")):
        with mock.patch.object(_kernels, "_native", native), \
                mock.patch.object(_kernels, "run", record), \
                mock.patch.object(minoracle, "run", record):
            for name, calls in reports.items():
                for call in calls:
                    with pytest.raises(UnknownPolicy, match=f"^unknown policy '{name}' "):
                        call()
    assert runs == []


def test_run_policy_rejects_unknown_backend():
    trace = make_trace([0x40, 0x80])
    with pytest.raises(UsageError, match="unknown backend 'kernal'"):
        run_policy(trace, "lru", CacheGeometry(2, 2), backend="kernal")


def test_empty_trace():
    trace = make_trace([])
    stats, _, _ = run_policy(trace, "ehc", CacheGeometry(2, 2), backend="kernel")
    assert stats.accesses == 0
    _, log, _ = run_policy(trace, "ehc", CacheGeometry(2, 2), backend="kernel",
                           record_events=True)
    assert len(log) == 0 and log.resident_pos.shape == (0, 2)


@pytest.mark.parametrize("lib", [_kernels, minoracle], ids=["kernel", "reference"])
def test_kernel_run_checks_the_min_columns(lib):
    # MIN reads next_use by trace position, so a missing or short column
    # would take the kernel outside it; only MIN writes rows. The reference
    # backend checks its arguments alike and returns the same rows.
    trace = make_trace([0x40, 0x80, 0x40])
    geom = CacheGeometry(1, 1)
    column, short = np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)
    for kw in ({}, {"rows": True}):
        with pytest.raises(ValueError, match="MIN takes a next_use column"):
            lib.run(trace, "min", geom, 0, **kw)
    with pytest.raises(ValueError, match="next_use must hold 3 entries, not 2"):
        lib.run(trace, "min", geom, 0, next_use=short)
    with pytest.raises(ValueError, match="only MIN writes residency rows, not lru"):
        lib.run(trace, "lru", geom, 0, next_use=column, rows=True)
    # A stay ends at the miss that evicts it, or at the trace length when
    # the line is still resident; a bypass writes no row.
    next_use = np.array([2, NO_NEXT_USE, NO_NEXT_USE], dtype=np.int64)
    for bypass, want in ((False, [[0, 1, 2], [1, 2, 3], [0, 0, 0]]), (True, [[0], [3], [1]])):
        stats, _, _, rows, _ = lib.run(trace, "min", geom, 0, next_use=next_use,
                                       bypass=bypass, rows=True)
        count = len(rows) // len(_kernels._ROW_FIELDS)
        assert count == stats.misses - stats.per_policy["bypasses"]
        assert np.asarray(rows).reshape(count, len(_kernels._ROW_FIELDS)).T.tolist() == want
    # The rows are not there when not asked for.
    assert lib.run(trace, "min", geom, 0, next_use=next_use)[3] is None


@pytest.mark.parametrize("lib", [_kernels, minoracle], ids=["kernel", "reference"])
def test_prediction_error_rejects_a_row_that_fills_outside_the_trace(lib):
    # The histogram reads each row's address at its fill position, so a
    # position outside the trace is refused before any is returned.
    def row(fill, end, hits):
        return [{"fill": fill, "end": end, "hits": hits}[f] for f in _kernels._ROW_FIELDS]

    trace = make_trace([0x40, 0x80, 0x40, 0x80])
    for fill in (-1, len(trace), 10**12):
        rows = np.array(row(0, 2, 1) + row(fill, 4, 1), dtype=np.int64)
        for by_region in (False, True):
            with pytest.raises(ValueError, match=rf"^residency row 1 fills at position {fill}, "
                                                 r"outside the trace of 4 accesses$"):
                lib.prediction_error(trace, CacheGeometry(1, 1), rows, by_region)


@pytest.mark.parametrize("lib", [_kernels, minoracle], ids=["kernel", "reference"])
def test_run_ranks_the_victims_of_the_built_in_policies_only(lib):
    # Only MIN bypasses. MIN reads next_use as its oracle and ranks nothing;
    # a built-in policy given it ranks every victim. LRU evicts A for B,
    # which is never used again (rank 1), then B for A (rank 0).
    trace = make_trace([0x40, 0x80, 0x40])
    geom = CacheGeometry(1, 1)
    next_use = lib.next_use(trace, geom)
    for kw in ({}, {"next_use": next_use}):
        with pytest.raises(ValueError, match="only MIN bypasses, not lru"):
            lib.run(trace, "lru", geom, 0, bypass=True, **kw)
    for bypass in (False, True):
        assert lib.run(trace, "min", geom, 0, next_use=next_use, bypass=bypass)[4] is None
    assert lib.run(trace, "lru", geom, 0, next_use=next_use)[4] == [1, 1]
    assert lib.run(trace, "lru", geom, 0)[4] is None


@pytest.mark.parametrize("lib", [_kernels, minoracle], ids=["kernel", "reference"])
def test_run_allocates_its_ranks_before_it_simulates(lib, monkeypatch):
    # The victim ranks of a 2^62-way set take more memory than any host
    # has, though the geometry passes check_geometry; each backend
    # allocates them first and raises GeometryTooLarge without simulating.
    monkeypatch.setattr(runner, "simulate", lambda *args, **kwargs: pytest.fail("simulated"))
    trace = make_trace([0x40, 0x80, 0x40])
    geom = CacheGeometry(1, 1 << 62)
    with pytest.raises(GeometryTooLarge, match="cannot allocate the tables of a cache of 1 sets"):
        lib.run(trace, "lru", geom, 0, next_use=lib.next_use(trace, geom))


@pytest.mark.parametrize("kind", ["zipf", "region", "mixed", "stream"])
def test_kernel_next_use_matches_numpy_beyond_its_first_table(kind):
    # Thousands of distinct blocks, so the scan's table (1024 slots at
    # first) doubles several times; then blocks that differ only in their
    # top bits.
    trace = gen_synthetic(GeneratorSpec(kind, block_count=1 << 16, length=60_000, seed=5))
    top = make_trace([(k % 4099) << 50 for k in range(20_000)])
    for t in (trace, top):
        for geom in (CacheGeometry(64, 4), CacheGeometry(64, 4, 1), CacheGeometry(64, 4, 20)):
            assert_same_array(_kernels.next_use(t, geom), compute_next_use(t, geom),
                              f"next use, {geom}")


@pytest.mark.parametrize("workload", [*sorted(TRACES), "near-top"])
def test_reports_on_the_kernel_match_the_reference_engine_and_numpy(workload, monkeypatch,
                                                                    tmp_path):
    # Every analyze report, and compare with victim ranks, from the kernel's
    # next use, rows, histograms and in-loop ranks, against the reference
    # engine and the numpy oracle; on the kernel also over the columns of
    # the saved trace, as the CLI reads it, where next use, rows and ranks
    # live in anonymous memory rather than numpy arrays. "near-top" has
    # all-ones PCs and addresses within 384 bytes of 2**64 - 1, at one way,
    # at three, and with 64 and 70 offset bits.
    if workload == "near-top":
        trace = make_trace([((1 << 64) - 1, (1 << 64) - 1 - 64 * (k % 7)) for k in range(300)])
        geoms = (CacheGeometry(1, 1), CacheGeometry(64, 3),
                 CacheGeometry(2, 2, 64), CacheGeometry(2, 2, 70))
    else:
        trace, geoms = gen_synthetic(TRACES[workload]), (CacheGeometry(64, 4),)
    save_trace(trace, tmp_path / "t.trace")
    columns = _kernels.load_trace(tmp_path / "t.trace")
    assert isinstance(columns, _kernels.Columns)

    def reports(trace):
        out = {}
        for geom in geoms:
            out |= {(geom, kind, policy): analyze(trace, kind, policy, geom).to_csv()
                    for kind in REPORT_KINDS for policy in ("lru", "hawkeye", "ehc")}
            out[geom, "compare"] = compare(trace, POLICY_NAMES, geom, events=True).to_csv()
        return out

    kernel = reports(trace)
    assert kernel == reports(columns)
    monkeypatch.setattr(_kernels, "_native", lambda: (None, "disabled"))
    assert kernel == reports(trace)


def test_auto_records_events_on_the_kernel(monkeypatch):
    # auto runs event logging on the kernel, whatever the addresses;
    # backend="reference" still goes to the reference engine.
    calls = []
    real_run = _kernels.run

    def counted_run(*args, **kwargs):
        calls.append("kernel")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(_kernels, "run", counted_run)
    trace = gen_synthetic(TRACES["zipf"])
    geom = CacheGeometry(64, 4)
    _, log, _ = run_policy(trace, "ehc", geom, record_events=True)
    assert calls == ["kernel"] and len(log) > 0
    run_policy(trace, "ehc", geom, record_events=True, backend="reference")
    assert calls == ["kernel"]
    _, huge_log, _ = run_policy(make_trace([1 << 63, (1 << 63) + 64]), "lru",
                                CacheGeometry(1, 1), record_events=True)
    assert calls == ["kernel", "kernel"]
    assert huge_log.index.tolist() == [1] and huge_log.resident_pos.tolist() == [[0]]


# --- the event dump ----------------------------------------------------------


def _dump(log, trace, geom):
    """The bytes ``log.write_csv`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        log.write_csv(path, trace, geom)
        return path.read_bytes()


def _oracle_dump(events, trace, geom):
    """The dump of ``events``, ``loop_oracles.Event`` rows, as ``csv.writer``
    formats it from Python ints."""
    addrs = trace.addr.tolist()

    def aligned(position):
        return hex(geom.block_addr(geom.set_index(addrs[position]), geom.tag(addrs[position])))

    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["index", "set", "victim_way", "no_averse", "incoming",
                     *(f"resident_{w}" for w in range(geom.associativity))])
    for ev in events:
        writer.writerow([ev.index, geom.set_index(addrs[ev.index]),
                         "bypass" if ev.victim_way == BYPASS else ev.victim_way,
                         int(ev.no_averse), aligned(ev.index), *map(aligned, ev.resident_pos)])
    return out.getvalue().encode()


def _assert_same_dump_in_any_chunks(log, trace, geom, want):
    """``log`` dumps ``want``, with chunks of the default size, of 1 and of 3
    events."""
    assert _dump(log, trace, geom) == want
    for chunk in (1, 3):
        with mock.patch.object(_kernels, "_CHUNK_EVENTS", chunk):
            assert _dump(log, trace, geom) == want, chunk


#: Four blocks at the top of the 64-bit space through one 2-way set: MIN
#: evicts and bypasses there.
NEAR_2_64 = (CacheGeometry(1, 2), make_trace([(1 << 64) - 1 - 64 * k
                                              for k in (0, 1, 2, 0, 3, 1, 2, 0, 3, 1)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(traced_geometries(max_len=60))
@example(NEAR_2_64)
def test_event_dump_is_the_same_in_chunks_of_any_size(case):
    # MIN with bypass on both backends, the kernel's over its memoryview
    # columns, against the rows of the loop oracle; then EHC, whose rows
    # hold no-averse flags, on both backends.
    geom, trace = case
    want = _oracle_dump(loop_simulate_min(trace, geom, bypass=True)[3], trace, geom)
    for backend, columns in (("kernel", columns_of(trace)), ("reference", trace)):
        log = simulate_min(trace, geom, bypass=True, record_events=True, backend=backend)[3]
        _assert_same_dump_in_any_chunks(log, columns, geom, want)
    _, log, _ = run_policy(trace, "ehc", geom, backend="reference", record_events=True)
    want = _dump(log, trace, geom)
    _, log, _ = run_policy(trace, "ehc", geom, backend="kernel", record_events=True)
    _assert_same_dump_in_any_chunks(log, columns_of(trace), geom, want)


def test_near_2_64_example_dumps_bypasses_and_evictions():
    geom, trace = NEAR_2_64
    log = simulate_min(trace, geom, bypass=True, record_events=True, backend="kernel")[3]
    assert (log.victim_way == BYPASS).any() and (log.victim_way != BYPASS).any()


def _traced_peak(call):
    """The tracemalloc peak of ``call()`` above what was traced when it
    began, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_event_dump_memory_does_not_grow_with_the_log(tmp_path, rng):
    # Logs of 2 and 8 chunks over traces as long, addresses anywhere: the
    # dump's peaks differ by less than one chunk's event rows.
    geom = CacheGeometry(4, 4)
    width = len(_kernels._EVENT_FIELDS) + geom.associativity

    def peak(n):
        log = EventLog(rng.integers(0, n, size=(n, width)))
        log.victim_way[:] = rng.integers(BYPASS, geom.associativity, size=n)
        addr = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        return _traced_peak(lambda: log.write_csv(tmp_path / "events.csv",
                                                  _kernels.Columns(addr, addr, n), geom))[0]

    n = 2 * _kernels._CHUNK_EVENTS
    assert abs(peak(4 * n) - peak(n)) < _kernels._CHUNK_EVENTS * width * 8


def test_recording_events_takes_no_memory_beyond_the_rows(rng):
    # A trace of nearly all misses in full sets, of N and of 4N accesses:
    # beyond the event rows, the hit flags and the no-averse column, each
    # as long as the trace or the log, the run's peak stays the same.
    geom = CacheGeometry(4, 4)
    width = len(_kernels._EVENT_FIELDS) + geom.associativity

    def extra(n):
        addr = rng.integers(0, 1 << 40, size=n, dtype=np.uint64)
        trace = _kernels.Columns(addr, addr, n)
        peak, (_, log, flags, _, _) = _traced_peak(
            lambda: _kernels.run(trace, "ehc", geom, 42, record_events=True))
        assert len(log) > n - 100
        return peak - n * width * 8 - len(flags) - log.no_averse.nbytes

    extra(100)  # loads the kernel
    assert abs(extra(4 * 16384) - extra(16384)) < 4096


# --- building and loading the native kernel -------------------------------

LOADER_TRACE = GeneratorSpec("mixed", block_count=512, length=1500, seed=2)
TRUNCATED_ELF = b"\x7fELF\x02\x01\x01" + bytes(57)


@pytest.fixture
def kernel_cache(monkeypatch, tmp_path):
    """An empty directory as the only kernel cache; the loaded kernel is
    forgotten before and after the test."""
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [cache])
    _kernels._native.cache_clear()
    yield cache
    _kernels._native.cache_clear()


def _runs(backend):
    trace = gen_synthetic(LOADER_TRACE)
    out = {}
    for name in ("lru", "drrip", "ehc"):
        stats, log, flags = run_policy(trace, name, CacheGeometry(64, 4), backend=backend,
                                       record_events=True)
        out[name] = (stats, flags.tolist(),
                     [getattr(log, column).tolist() for column in LOG_COLUMNS[EventLog]])
    return out


def _min_runs(backend):
    trace = gen_synthetic(LOADER_TRACE)
    return [simulate_min(trace, CacheGeometry(64, 4), bypass=bypass, record_events=True,
                         backend=backend)
            for bypass in (False, True)]


def _no_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernels, "_COMPILER", "ehcsim-no-such-cc")


def _no_python_headers(monkeypatch, tmp_path):
    empty = tmp_path / "include"
    empty.mkdir()
    monkeypatch.setattr(sysconfig, "get_paths",
                        lambda: {"include": str(empty), "platinclude": str(empty)})


def _failing_build(monkeypatch, tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("#error this kernel does not build\n")
    monkeypatch.setattr(_kernels, "_SOURCE", broken)


def test_cold_build_then_warm_load(kernel_cache, monkeypatch):
    cold = _runs("kernel")
    _, name = _kernels._source()
    assert [p.name for p in kernel_cache.iterdir()] == [name]  # no leftovers

    def no_compile(*args):
        raise AssertionError("a warm load must not compile")

    _kernels._native.cache_clear()
    monkeypatch.setattr(_kernel_build, "build", no_compile)
    warm = _runs("kernel")
    assert warm == cold == _runs("reference")


def test_build_removes_superseded_libraries(kernel_cache, monkeypatch, tmp_path):
    _, name = _kernels._source()
    suffix = name[name.index("."):]
    stale = {kernel_cache / f"_kernel-{digit * 24}{suffix}" for digit in "0f"}
    # Another build's temporary library, another interpreter's library, and
    # a file that is no library.
    kept = {kernel_cache / f"_kernel-{'1' * 24}a1b2c3d4{suffix}",
            kernel_cache / f"_kernel-{'2' * 24}.so", kernel_cache / "notes.txt"}
    for path in stale | kept:
        path.write_bytes(TRUNCATED_ELF)
    source = _kernels._SOURCE
    _failing_build(monkeypatch, tmp_path)
    assert _kernels.unavailable() is not None
    assert set(kernel_cache.iterdir()) == stale | kept  # a failed build deletes nothing
    monkeypatch.setattr(_kernels, "_SOURCE", source)
    _kernels._native.cache_clear()
    assert _kernels.unavailable() is None
    assert set(kernel_cache.iterdir()) == kept | {kernel_cache / name}


@pytest.mark.parametrize("breakage, reason", [
    (_no_compiler, "no C compiler"),
    (_failing_build, "exited with status"),
], ids=["no-compiler", "failing-build"])
def test_unbuildable_kernel_falls_back(kernel_cache, monkeypatch, tmp_path, capsys,
                                       breakage, reason):
    expected = _runs("reference")
    expected_min = _min_runs("reference")
    breakage(monkeypatch, tmp_path)
    assert _kernels.unavailable() is not None
    assert reason in _kernels.unavailable()
    assert _runs("auto") == expected
    for got, want in zip(_min_runs("auto"), expected_min, strict=True):
        assert_same_min(got, want)
    with pytest.raises(UsageError, match=f"kernel backend unavailable: .*{reason}"):
        run_policy(gen_synthetic(LOADER_TRACE), "lru", CacheGeometry(64, 4),
                   backend="kernel")
    with pytest.raises(UsageError, match=f"kernel backend unavailable: .*{reason}"):
        simulate_min(gen_synthetic(LOADER_TRACE), CacheGeometry(64, 4), backend="kernel")
    # One line per process, however many runs fell back.
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert reason in err[0] and "using the reference engine" in err[0]
    assert list(kernel_cache.iterdir()) == []


def test_unusable_first_cache_directory_is_skipped(kernel_cache, monkeypatch, tmp_path):
    # A directory that cannot be created (here: below a regular file) is
    # passed over for the next one.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [blocker / "cache", kernel_cache])
    assert _kernels.unavailable() is None
    _, name = _kernels._source()
    assert [p.name for p in kernel_cache.iterdir()] == [name]


def _planted_library(tmp_path, kernel_cache):
    """A directory holding a loadable library under the kernel's cache name,
    as another user could plant it; plus a spy on what gets loaded."""
    assert _kernels.unavailable() is None  # builds the real library into kernel_cache
    _, name = _kernels._source()
    planted = tmp_path / "planted"
    planted.mkdir(mode=0o700)
    (kernel_cache / name).rename(planted / name)
    _kernels._native.cache_clear()
    return planted, name


def _spy_on_loads(monkeypatch):
    loaded = []
    bind = _kernels._bind

    def spy(path):
        loaded.append(path)
        return bind(path)

    monkeypatch.setattr(_kernels, "_bind", spy)
    return loaded


def test_library_in_a_writable_by_others_directory_is_not_loaded(kernel_cache, monkeypatch,
                                                                 tmp_path):
    planted, name = _planted_library(tmp_path, kernel_cache)
    planted.chmod(0o777)
    loaded = _spy_on_loads(monkeypatch)
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [planted, kernel_cache])
    assert _kernels.unavailable() is None
    # The fresh build goes to the private directory, and only it is loaded.
    assert [Path(path) for path in loaded] == [kernel_cache / name]
    assert _runs("auto") == _runs("reference")


def test_library_in_another_users_directory_is_not_loaded(kernel_cache, monkeypatch,
                                                          tmp_path, capsys):
    planted, name = _planted_library(tmp_path, kernel_cache)
    loaded = _spy_on_loads(monkeypatch)
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [planted])
    # The directory is private, but to a different user than this one.
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert not _kernels.use_kernel("auto", DEFAULT_GEOMETRY)
    assert loaded == []
    assert "no private writable cache directory" in _kernels.unavailable()
    assert [p.name for p in planted.iterdir()] == [name]  # not overwritten either
    assert "using the reference engine" in capsys.readouterr().err


def test_truncated_cached_library_is_rebuilt(kernel_cache):
    _, name = _kernels._source()
    (kernel_cache / name).write_bytes(TRUNCATED_ELF)
    assert _kernels.unavailable() is None
    assert (kernel_cache / name).stat().st_size > len(TRUNCATED_ELF)
    assert _runs("auto") == _runs("reference")


def test_truncated_cached_library_without_compiler_falls_back(kernel_cache, monkeypatch,
                                                              tmp_path, capsys):
    _, name = _kernels._source()
    (kernel_cache / name).write_bytes(TRUNCATED_ELF)
    _no_compiler(monkeypatch, tmp_path)
    assert _kernels.unavailable() is not None
    assert _runs("auto") == _runs("reference")
    assert "no C compiler" in capsys.readouterr().err
    # A compiler without Python's C headers fails the build, and auto falls
    # back alike, saying the compiler's reason in one line.
    monkeypatch.setattr(_kernels, "_COMPILER", "cc")
    _no_python_headers(monkeypatch, tmp_path)
    _kernels._native.cache_clear()
    assert "Python.h" in _kernels.unavailable()
    assert _runs("auto") == _runs("reference")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Python.h" in err[0] and "using the reference engine" in err[0]
    with pytest.raises(UsageError, match="kernel backend unavailable: .*Python.h"):
        run_policy(gen_synthetic(LOADER_TRACE), "lru", CacheGeometry(64, 4), backend="kernel")
    assert [p.name for p in kernel_cache.iterdir()] == [name]


def _assert_cli_fallback_writes_the_same_csv(kernel_cache, monkeypatch, tmp_path, capsys,
                                             breakage):
    # The fallback notice goes to stderr only; the reports are unchanged.
    from ehcsim.cli import main

    trace = tmp_path / "t.trace"
    assert main(["gen", "--kind", "mixed", "--blocks", "512", "--length", "1500",
                 "-o", str(trace)]) == 0
    common = ["--trace", str(trace), "--sets", "64", "--ways", "4"]
    commands = {
        "compare": ["compare", *common, "--policies", "ehc,drrip", "--events"],
        "min-gap": ["analyze", *common, "--report", "min-gap"],
        "hitcount-region": ["analyze", *common, "--report", "hitcount-region"],
    }

    def run_all(side):
        for name, args in commands.items():
            assert main([*args, "--csv", str(tmp_path / f"{side}-{name}.csv")]) == 0

    run_all("native")
    assert capsys.readouterr().err == ""
    _kernels._native.cache_clear()
    for library in kernel_cache.iterdir():  # a host without one has none cached
        library.unlink()
    breakage(monkeypatch, tmp_path)
    run_all("fallback")
    for name in commands:
        fallback = tmp_path / f"fallback-{name}.csv"
        assert fallback.read_bytes() == (tmp_path / f"native-{name}.csv").read_bytes(), name
        assert "native kernel unavailable" not in fallback.read_text()
    # One line for the whole process, whichever commands fell back.
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_cli_fallback_writes_the_same_csv(kernel_cache, monkeypatch, tmp_path, capsys):
    _assert_cli_fallback_writes_the_same_csv(kernel_cache, monkeypatch, tmp_path, capsys,
                                             _failing_build)


def test_cli_without_compiler_writes_the_same_csv(kernel_cache, monkeypatch, tmp_path,
                                                  capsys):
    _assert_cli_fallback_writes_the_same_csv(kernel_cache, monkeypatch, tmp_path, capsys,
                                             _no_compiler)
