"""Offline Belady MIN oracles and ground-truth analyses.

Everything here may look at the whole trace at once: next-use indices from a
stable sort of the block column, MIN simulation with and without bypass,
per-residency hit counts, hit-count prediction-error histograms, and
reuse-distance ranking of a policy's evicted victims (binary searches over
the sorted (block, position) keys).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .engine import BYPASS, CacheGeometry, DEFAULT_GEOMETRY, EventLog, SimStats
from .errors import MissingEventLog
from .sampler import MinDecision
from .trace import REGION_SHIFT, Trace

#: Sentinel next-use position for blocks never referenced again ("infinity").
NO_NEXT_USE = 1 << 62

PREDICTION_HISTORY = 4  # residencies averaged per block/region prediction
ERROR_BUCKETS = 5       # |actual - predicted| of 0, 1, 2, 3, >=4


@dataclass(frozen=True)
class ResidencyRecord:
    """One stay of a block in the cache under MIN."""

    addr: int   # block-aligned byte address
    fill: int   # trace position that inserted the block
    end: int    # eviction position, or len(trace) if still resident
    hits: int


def compute_next_use(trace: Trace, geom: CacheGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """For each access, the position of the next access to the same block
    (:data:`NO_NEXT_USE` when there is none)."""
    blocks = trace.addr >> np.uint64(geom.block_offset_bits)
    # A stable sort keeps each block's accesses in trace order, so every
    # access is followed by its next use unless the block changes there.
    order = np.argsort(blocks, kind="stable")
    same = blocks[order[1:]] == blocks[order[:-1]]
    next_use = np.full(len(trace), NO_NEXT_USE, dtype=np.int64)
    next_use[order[:-1][same]] = order[1:][same]
    return next_use


def simulate_min(
    trace: Trace,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    bypass: bool = True,
    record_events: bool = False,
):
    """Belady's MIN: evict whatever is referenced farthest in the future.

    With ``bypass`` the incoming block competes with the residents and is not
    inserted when its own next use is strictly farthest (ties go to keeping
    the residents). Returns ``(stats, decisions, residencies, events)``:
    ``decisions`` holds one :class:`MinDecision` code per access,
    ``residencies`` covers every fill including blocks still resident at the
    end of the trace (those last, set by set in the order the sets were
    first touched), ``events`` is an :class:`EventLog` when requested and
    None otherwise.
    """
    n = len(trace)
    next_use = compute_next_use(trace, geom)
    assoc = geom.associativity
    shift = geom.block_offset_bits
    blocks = trace.addr >> np.uint64(shift)
    set_ids = blocks & np.uint64(geom.num_sets - 1)
    hit = np.zeros(n, dtype=np.uint8)

    # Memoryviews index as Python ints without copying the columns.
    block_at, set_at, next_at, hit_at = (
        memoryview(blocks), memoryview(set_ids), memoryview(next_use), memoryview(hit)
    )
    way_of: dict[int, int] = {}  # resident block -> its way
    # set -> per-way lists [next use, block, fill position, hits]; the dict
    # keeps the sets in the order they were first touched.
    state: dict[int, tuple] = {}
    residencies: list[ResidencyRecord] = []
    ev_index, ev_set, ev_way, ev_resident = [], [], [], []  # event log columns
    hits = replacements = bypasses = 0

    for i in range(n):
        b = block_at[i]
        way = way_of.get(b)
        if way is not None:
            nexts, _, _, way_hits = state[set_at[i]]
            nexts[way] = next_at[i]
            way_hits[way] += 1
            hit_at[i] = 1
            hits += 1
            continue

        si = set_at[i]
        ways = state.get(si)
        if ways is None:
            ways = state[si] = ([], [], [], [])
        nexts, way_block, fills, way_hits = ways
        nu = next_at[i]
        if len(nexts) < assoc:
            way_of[b] = len(nexts)
            nexts.append(nu)
            way_block.append(b)
            fills.append(i)
            way_hits.append(0)
            continue

        farthest = max(nexts)
        victim = nexts.index(farthest)  # the first way on ties
        skip = bypass and nu > farthest
        if record_events:
            ev_index.append(i)
            ev_set.append(si)
            ev_way.append(BYPASS if skip else victim)
            ev_resident.extend(way_block)
        if skip:
            bypasses += 1
            continue
        old = way_block[victim]
        residencies.append(ResidencyRecord(
            addr=old << shift, fill=fills[victim], end=i, hits=way_hits[victim],
        ))
        del way_of[old]
        way_of[b] = victim
        nexts[victim] = nu
        way_block[victim] = b
        fills[victim] = i
        way_hits[victim] = 0
        replacements += 1

    for _, way_block, fills, way_hits in state.values():
        # Within a set, the residents in the order they were filled.
        for w in sorted(range(len(fills)), key=fills.__getitem__):
            residencies.append(ResidencyRecord(
                addr=way_block[w] << shift, fill=fills[w], end=n, hits=way_hits[w],
            ))

    # A block's first access is the next use of no earlier access.
    first = np.ones(n, dtype=bool)
    first[next_use[next_use != NO_NEXT_USE]] = False
    decisions = np.where(
        hit == 1, MinDecision.HIT,
        np.where(first, MinDecision.COLD_MISS, MinDecision.MISS),
    ).astype(np.uint8)

    stats = SimStats(
        accesses=n, hits=hits, misses=n - hits,
        replacements_total=replacements,
    )
    stats.per_policy["bypasses"] = bypasses
    events = None
    if record_events:
        index = np.array(ev_index, dtype=np.int64)
        events = EventLog(
            index, ev_set, ev_way, np.zeros(len(index), dtype=bool),
            blocks[index] << np.uint64(shift),
            np.array(ev_resident, dtype=np.uint64).reshape(-1, assoc) << np.uint64(shift),
        )
    return stats, decisions, residencies, events


def _round_half_up_mean(values) -> int:
    total = sum(values)
    n = len(values)
    return (2 * total + n) // (2 * n)


def _error_histogram(keyed_residencies) -> np.ndarray:
    """Walk residencies in completion order, predict each hit count as the
    round-half-up mean of the key's last four known counts, and bucket
    |actual - predicted| (first sighting excluded)."""
    hist = np.zeros(ERROR_BUCKETS, dtype=np.int64)
    history: dict[int, collections.deque] = collections.defaultdict(
        lambda: collections.deque(maxlen=PREDICTION_HISTORY)
    )
    for key, rec in keyed_residencies:
        past = history[key]
        if past:
            diff = abs(rec.hits - _round_half_up_mean(past))
            hist[min(diff, ERROR_BUCKETS - 1)] += 1
        past.append(rec.hits)
    return hist


def _completion_order(residencies):
    return sorted(residencies, key=lambda r: (r.end, r.fill))


def per_block_prediction_error(residencies) -> np.ndarray:
    """Histogram of |actual - predicted| hits, predicting each residency from
    the same block's previous (up to four) residencies."""
    return _error_histogram(
        (r.addr, r) for r in _completion_order(residencies)
    )


def per_region_prediction_error(residencies) -> np.ndarray:
    """Same histogram but predicting from the last four completed residencies
    anywhere in the block's 128 KB region."""
    return _error_histogram(
        (r.addr >> REGION_SHIFT, r) for r in _completion_order(residencies)
    )


def victim_quality(events, trace: Trace, geom: CacheGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """Rank each evicted victim among the replacement's candidates by next use.

    Candidates are the set's residents plus the incoming block; a victim's
    rank is how many candidates would be referenced strictly farther in the
    future (so rank 0 is the MIN-optimal choice and the worst possible rank
    equals the associativity). Bypass decisions score the incoming block.
    ``events`` is an :class:`EventLog` or a sequence of
    :class:`ReplacementEvent`. Returns a histogram over ranks
    ``0..associativity``.
    """
    if events is None:
        raise MissingEventLog("victim quality requires a recorded event log")
    if not isinstance(events, EventLog):
        events = EventLog.from_events(events, geom.associativity)
    next_use_after = _next_use_finder(trace, geom)
    at = events.index
    bypassed = events.victim_way == BYPASS
    victim_addr = events.resident_addrs[
        np.arange(len(events)), np.where(bypassed, 0, events.victim_way)
    ]
    victim_addr[bypassed] = events.incoming_addr[bypassed]
    victim_use = next_use_after(victim_addr, at)
    # One candidate column at a time keeps every temporary at len(events).
    rank = (next_use_after(events.incoming_addr, at) > victim_use).astype(np.int64)
    for w in range(events.resident_addrs.shape[1]):
        rank += next_use_after(events.resident_addrs[:, w], at) > victim_use
    return np.bincount(rank, minlength=geom.associativity + 1).astype(np.int64)


def _next_use_finder(trace: Trace, geom: CacheGeometry):
    """``f(addrs, at)``: per element, the first trace position after ``at``
    that accesses block-aligned address ``addrs`` (:data:`NO_NEXT_USE` when
    none does)."""
    n = len(trace)
    aligned = trace.addr & ~np.uint64((1 << geom.block_offset_bits) - 1)
    order = np.argsort(aligned, kind="stable")
    by_block = aligned[order]
    new_block = np.ones(n, dtype=bool)
    new_block[1:] = by_block[1:] != by_block[:-1]
    uniq = by_block[new_block]
    # Keys (block id, position), packed as block_id * n + position; the
    # stable sort already orders them.
    keys = (np.cumsum(new_block) - 1) * n + order

    def next_use_after(addrs, at):
        if n == 0:
            return np.full(len(addrs), NO_NEXT_USE, dtype=np.int64)
        ids = np.minimum(np.searchsorted(uniq, addrs), len(uniq) - 1)
        base = ids * n
        k = np.searchsorted(keys, base + at, side="right")
        key = keys[np.minimum(k, n - 1)]
        found = (uniq[ids] == addrs) & (k < n) & (key < base + n)
        return np.where(found, key - base, NO_NEXT_USE)

    return next_use_after


def mean_rank(hist: np.ndarray) -> float:
    total = int(hist.sum())
    if total == 0:
        return 0.0
    return float((hist * np.arange(len(hist))).sum() / total)
