"""Shared trace builders and the independent oracles the tests check against."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from ehcsim import CacheGeometry, EventLog, ResidencyLog, Trace, _kernels


def make_trace(accesses, pc=0x400000):
    """Trace from a list of byte addresses or (pc, addr) pairs."""
    pcs, addrs = [], []
    for item in accesses:
        if isinstance(item, tuple):
            pcs.append(item[0])
            addrs.append(item[1])
        else:
            pcs.append(pc)
            addrs.append(item)
    n = len(addrs)
    return Trace(
        seq=np.arange(n, dtype=np.uint64),
        pc=np.array(pcs, dtype=np.uint64),
        addr=np.array(addrs, dtype=np.uint64),
        core=np.zeros(n, dtype=np.uint8),
        kind=np.zeros(n, dtype=np.uint8),
    )


def columns_of(trace):
    """The ``Columns`` the kernel's trace loader would give for ``trace``:
    uint64 memoryviews, no numpy."""
    return _kernels.Columns(memoryview(bytearray(trace.pc.tobytes())).cast("Q"),
                            memoryview(bytearray(trace.addr.tobytes())).cast("Q"),
                            trace.instruction_count)


def random_trace(rng, length, num_blocks, num_pcs=4):
    """Random accesses over blocks 0..num_blocks-1 (64-byte blocks)."""
    blocks = rng.integers(0, num_blocks, size=length)
    pcs = rng.integers(0, num_pcs, size=length) * 4 + 0x400000
    return make_trace([(int(p), int(b) * 64) for p, b in zip(pcs, blocks)])


def single_set_trace(rng, length, num_tags, geom, num_pcs=4):
    """Random accesses confined to set 0 (for per-set oracles)."""
    tags = rng.integers(0, num_tags, size=length)
    pcs = rng.integers(0, num_pcs, size=length) * 4 + 0x400000
    return make_trace(
        [(int(p), geom.block_addr(0, int(t))) for p, t in zip(pcs, tags)]
    )


def traced_peak(call):
    """The tracemalloc peak of ``call()`` above what was traced when it
    began, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


#: The columns of each log type, which the equality checks compare.
LOG_COLUMNS = {
    EventLog: ("index", "victim_way", "no_averse", "resident_pos"),
    ResidencyLog: ("addr", "fill", "end", "hits"),
}


def residency_log(rows):
    """A ``ResidencyLog`` over the int64 table, in the residency-row layout
    both backends write, of rows with ``addr``, ``fill``, ``end`` and
    ``hits`` attributes, in order."""
    rows = list(rows)
    return ResidencyLog(
        np.array([[getattr(r, field) for field in _kernels._ROW_FIELDS] for r in rows],
                 dtype=np.int64).reshape(-1, len(_kernels._ROW_FIELDS)),
        np.array([r.addr for r in rows], dtype=np.uint64),
    )


def event_log(events, associativity):
    """An ``EventLog`` over the int64 table, in the row layout both loops
    write, of rows with ``index``, ``victim_way``, ``no_averse`` and
    ``resident_pos`` attributes, in order."""
    return EventLog(np.array(
        [[*(getattr(ev, field) for field in _kernels._EVENT_FIELDS), *ev.resident_pos]
         for ev in events], dtype=np.int64,
    ).reshape(-1, len(_kernels._EVENT_FIELDS) + associativity))


# ---------------------------------------------------------------------------
# Hypothesis strategies for geometries and the traces that fill them.
# ---------------------------------------------------------------------------


@st.composite
def geometries(draw, max_set_bits=4, max_ways=8):
    return CacheGeometry(
        num_sets=1 << draw(st.integers(0, max_set_bits)),
        associativity=draw(st.integers(1, max_ways)),
        block_offset_bits=draw(st.sampled_from([1, 6])),
    )


def top_heavy(bits):
    """Integers below 2**bits, half of them from the top quarter of the
    range, where the leading bits are set."""
    return st.one_of(st.integers(0, (1 << bits) - 1),
                     st.integers(3 << (bits - 2), (1 << bits) - 1))


@st.composite
def traced_geometries(draw, max_len):
    """A geometry of 1-64 sets and 1-16 ways and a trace of three shapes.
    "anywhere": at most 12 addresses anywhere in the 64-bit space, with
    the empty trace included. "crowded" and "loop": 1-3 sets (often the
    sampled set 0) with ways + 1 to ways + 3 tags each, over the whole tag
    range and at one byte offset, touched about twice each at random or
    in a loop, so that even 16-way sets fill, evict and bypass."""
    geom = draw(geometries(max_set_bits=6, max_ways=16))
    shape = draw(st.sampled_from(["anywhere", "crowded", "loop"]))
    if shape == "anywhere":
        pool = draw(st.lists(top_heavy(64), min_size=1, max_size=12, unique=True))
        return geom, make_trace(draw(st.lists(st.sampled_from(pool), max_size=max_len)))
    sets = draw(st.lists(st.one_of(st.just(0), st.integers(0, geom.num_sets - 1)),
                         min_size=1, max_size=3))
    tag_bits = 64 - geom.block_offset_bits - geom.set_bits
    # Distinct tags without a unique-list draw, which is slow: an odd
    # stride is invertible modulo 2**tag_bits.
    base, stride = draw(top_heavy(tag_bits)), 2 * draw(top_heavy(tag_bits - 1)) + 1
    count = draw(st.integers(geom.associativity + 1, geom.associativity + 3))
    tags = [(base + k * stride) % (1 << tag_bits) for k in range(count)]
    offset = draw(st.integers(0, (1 << geom.block_offset_bits) - 1))
    pool = [geom.block_addr(s, t) | offset for s in sets for t in tags]
    if shape == "loop":
        loop = draw(st.permutations(pool))
        return geom, make_trace((loop * (max_len // len(loop) + 1))[:max_len])
    return geom, make_trace(draw(st.lists(
        st.sampled_from(pool), min_size=min(2 * len(pool), max_len), max_size=max_len)))


# ---------------------------------------------------------------------------
# Equality checks that name the first difference. A whole-list ``==`` makes
# pytest diff every row of a mismatch, which on a long run takes minutes and
# hundreds of megabytes; these compare with numpy and report one row.
# ---------------------------------------------------------------------------


def assert_same_array(got, want, what):
    """``got`` equals ``want`` in shape and every element."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise AssertionError(f"{what}: shape {got.shape} != {want.shape}")
    if not np.array_equal(got, want):
        rows = (got != want).reshape(len(got), -1).any(axis=1)
        k = int(np.flatnonzero(rows)[0])
        raise AssertionError(f"{what}: first difference at row {k}: "
                             f"{got[k].tolist()!r} != {want[k].tolist()!r}")


def assert_same_log(got, want, what="log"):
    """Two column logs (``EventLog``, ``ResidencyLog``) of one type hold the
    same rows in the same order."""
    if type(got) is not type(want):
        raise AssertionError(f"{what}: {type(got).__name__} != {type(want).__name__}")
    for column in LOG_COLUMNS[type(want)]:
        assert_same_array(getattr(got, column), getattr(want, column), f"{what}.{column}")


def assert_same_min(got, want):
    """Two ``simulate_min`` results are equal: stats, decisions, residencies
    in order, and event logs (or both None)."""
    stats, decisions, residencies, events = got
    w_stats, w_decisions, w_residencies, w_events = want
    assert stats == w_stats
    assert decisions.dtype == w_decisions.dtype == np.uint8
    assert_same_array(decisions, w_decisions, "decisions")
    assert_same_log(residencies, w_residencies, "residencies")
    if w_events is None:
        assert events is None
    else:
        assert_same_log(events, w_events, "events")


# ---------------------------------------------------------------------------
# Oracle 1: brute-force LRU via an explicit recency list.
# ---------------------------------------------------------------------------


def lru_oracle_hits(trace, geom):
    """Per-access hit flags from a move-to-front list per set."""
    lists = {}
    flags = np.zeros(len(trace), dtype=np.uint8)
    for i in range(len(trace)):
        addr = int(trace.addr[i])
        si = geom.set_index(addr)
        tag = geom.tag(addr)
        blocks = lists.setdefault(si, [])
        if tag in blocks:
            flags[i] = 1
            blocks.remove(tag)
        elif len(blocks) == geom.associativity:
            blocks.pop()
        blocks.insert(0, tag)
    return flags


# ---------------------------------------------------------------------------
# Oracle 2: exhaustive search over all eviction (and bypass) schedules.
# ---------------------------------------------------------------------------


def max_hits_exhaustive(tags, associativity, bypass):
    """Best achievable hit count for one set's access stream, by trying
    every victim choice (and, optionally, bypassing) at every full miss."""
    tags = tuple(tags)

    @functools.lru_cache(maxsize=None)
    def best(i, resident):
        if i == len(tags):
            return 0
        t = tags[i]
        if t in resident:
            return 1 + best(i + 1, resident)
        if len(resident) < associativity:
            return best(i + 1, resident | frozenset((t,)))
        score = 0
        if bypass:
            score = best(i + 1, resident)
        for victim in resident:
            score = max(score, best(i + 1, (resident - {victim}) | {t}))
        return score

    return best(0, frozenset())


@pytest.fixture
def rng():
    return np.random.default_rng(1405)


@pytest.fixture
def small_geom():
    return CacheGeometry(num_sets=4, associativity=2)
