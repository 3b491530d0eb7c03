"""Offline Belady MIN oracles and ground-truth analyses.

Everything here may look at the whole trace at once: next-use indices from a
stable sort of the block column, MIN simulation with and without bypass,
per-residency hit counts, hit-count prediction-error histograms, and
reuse-distance ranking of a policy's evicted victims (gathers from the
next-use column at the positions an event log records).

MIN runs on the native kernel (``ehcsim_min`` in ``_kernel.c``) when it
could be built, and on a Python loop over memoryviews otherwise; both take
the next-use column computed here with numpy and give the same results,
which the test suite enforces. The prediction-error histograms are array
code over a columnar :class:`ResidencyLog`.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .engine import BYPASS, CacheGeometry, DEFAULT_GEOMETRY, EventLog, SimStats
from .errors import MissingEventLog
from .params import REGION_RING_SLOTS, REGION_SHIFT
from .sampler import MinDecision
from .trace import Trace

#: Sentinel next-use position for blocks never referenced again ("infinity").
NO_NEXT_USE = 1 << 62

ERROR_BUCKETS = 5  # |actual - predicted| of 0, 1, 2, 3, >=4


class ResidencyLog:
    """Residencies as columns, one row per fill: the stays of blocks in the
    cache under MIN.

    ``addr`` (uint64) is the block-aligned byte address, ``fill`` (int64)
    the trace position that inserted the block, ``end`` (int64) its
    eviction position, or the trace length if it was still resident, and
    ``hits`` (int64) the hits during the stay.
    """

    __slots__ = ("addr", "fill", "end", "hits")

    def __init__(self, addr, fill, end, hits):
        self.addr = np.ascontiguousarray(addr, dtype=np.uint64)
        self.fill = np.ascontiguousarray(fill, dtype=np.int64)
        self.end = np.ascontiguousarray(end, dtype=np.int64)
        self.hits = np.ascontiguousarray(hits, dtype=np.int64)
        if not len(self.addr) == len(self.fill) == len(self.end) == len(self.hits):
            raise ValueError("residency log columns must have equal length")

    def __len__(self) -> int:
        return len(self.addr)


def compute_next_use(trace: Trace, geom: CacheGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """For each access, the position of the next access to the same block
    (:data:`NO_NEXT_USE` when there is none)."""
    blocks = trace.addr >> np.uint64(geom.block_offset_bits)
    # A stable sort keeps each block's accesses in trace order, so every
    # access is followed by its next use unless the block changes there.
    order = np.argsort(blocks, kind="stable")
    same = blocks[order[1:]] == blocks[order[:-1]]
    next_use = np.full(len(blocks), NO_NEXT_USE, dtype=np.int64)
    next_use[order[:-1][same]] = order[1:][same]
    return next_use


def simulate_min(
    trace: Trace,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    bypass: bool = True,
    record_events: bool = False,
    backend: str = "auto",
):
    """Belady's MIN: evict whatever is referenced farthest in the future.

    With ``bypass`` the incoming block competes with the residents and is not
    inserted when its own next use is strictly farthest (ties go to keeping
    the residents). Returns ``(stats, decisions, residencies, events)``:
    ``decisions`` holds one :class:`MinDecision` code per access,
    ``residencies`` is a :class:`ResidencyLog` of every fill, evictions
    first in eviction order, then the blocks still resident at the end of
    the trace (set by set in the order the sets were first touched, and by
    fill position within a set), ``events`` is an :class:`EventLog` when
    requested and None otherwise. ``backend`` chooses the execution path as
    in :func:`ehcsim.runner.run_policy`: ``"auto"`` runs the native kernel
    unless it could not be built, ``"kernel"`` raises
    :class:`~ehcsim.errors.UsageError` when it could not, and
    ``"reference"`` always runs the Python loop. A geometry beyond the
    kernel's bound raises :class:`~ehcsim.errors.GeometryTooLarge` on
    either backend.
    """
    _kernels.check_backend(backend)
    _kernels.check_geometry(geom)
    next_use = compute_next_use(trace, geom)
    n = len(trace)
    if backend == "kernel" or (backend == "auto" and _kernels.unavailable() is None):
        hit, counts, columns, events = _kernels.run_min(
            trace, geom, next_use, bypass, record_events)
    else:
        hit, counts, columns, events = _reference_min(
            trace, geom, next_use, bypass, record_events)

    # A block's first access is the next use of no earlier access.
    first = np.ones(n, dtype=bool)
    first[next_use[next_use != NO_NEXT_USE]] = False
    decisions = np.where(
        hit == 1, MinDecision.HIT,
        np.where(first, MinDecision.COLD_MISS, MinDecision.MISS),
    ).astype(np.uint8)

    stats = SimStats(
        accesses=n, hits=counts["hits"], misses=n - counts["hits"],
        replacements_total=counts["replacements"],
    )
    stats.per_policy["bypasses"] = counts["bypasses"]
    return stats, decisions, ResidencyLog(*columns), events


def _reference_min(trace, geom, next_use, bypass, record_events):
    """The Python MIN loop, for hosts without a C compiler. Returns
    ``(hit_flags, counts, residency columns, events)`` as
    :func:`ehcsim._kernels.run_min` does; ``counts`` holds the hits,
    replacements and bypasses."""
    n = len(trace)
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
    # set -> per-way lists [next use, block, fill position, latest access,
    # hits]; the dict keeps the sets in the order they were first touched.
    state: dict[int, tuple] = {}
    res_addr, res_fill, res_end, res_hits = [], [], [], []  # residency columns
    ev_index, ev_way, ev_resident = [], [], []  # event log columns
    hits = replacements = bypasses = 0

    for i in range(n):
        b = block_at[i]
        way = way_of.get(b)
        if way is not None:
            nexts, _, _, lasts, way_hits = state[set_at[i]]
            nexts[way] = next_at[i]
            lasts[way] = i
            way_hits[way] += 1
            hit_at[i] = 1
            hits += 1
            continue

        si = set_at[i]
        ways = state.get(si)
        if ways is None:
            ways = state[si] = ([], [], [], [], [])
        nexts, way_block, fills, lasts, way_hits = ways
        nu = next_at[i]
        if len(nexts) < assoc:
            way_of[b] = len(nexts)
            nexts.append(nu)
            way_block.append(b)
            fills.append(i)
            lasts.append(i)
            way_hits.append(0)
            continue

        farthest = max(nexts)
        victim = nexts.index(farthest)  # the first way on ties
        skip = bypass and nu > farthest
        if record_events:
            ev_index.append(i)
            ev_way.append(BYPASS if skip else victim)
            ev_resident.extend(lasts)
        if skip:
            bypasses += 1
            continue
        old = way_block[victim]
        res_addr.append(old << shift)
        res_fill.append(fills[victim])
        res_end.append(i)
        res_hits.append(way_hits[victim])
        del way_of[old]
        way_of[b] = victim
        nexts[victim] = nu
        way_block[victim] = b
        fills[victim] = lasts[victim] = i
        way_hits[victim] = 0
        replacements += 1

    for _, way_block, fills, _, way_hits in state.values():
        # Within a set, the residents in the order they were filled.
        for w in sorted(range(len(fills)), key=fills.__getitem__):
            res_addr.append(way_block[w] << shift)
            res_fill.append(fills[w])
            res_end.append(n)
            res_hits.append(way_hits[w])

    events = None
    if record_events:
        events = EventLog(ev_index, ev_way, np.zeros(len(ev_index), dtype=bool),
                          np.array(ev_resident, dtype=np.int64).reshape(-1, assoc))
    counts = {"hits": hits, "replacements": replacements, "bypasses": bypasses}
    columns = (np.array(res_addr, dtype=np.uint64), res_fill, res_end, res_hits)
    return hit, counts, columns, events


def _error_histogram(keys: np.ndarray, residencies: ResidencyLog) -> np.ndarray:
    """Take residencies in completion order (by end, then fill), predict
    each hit count as the round-half-up mean of its key's previous (up to
    four) counts, and bucket |actual - predicted|. A key's first residency
    has nothing to predict from and is not counted. This is the online
    predictor's rule (``RegionHitTable.expected_hits``), window included."""
    done = np.lexsort((residencies.fill, residencies.end))
    # Stable, so each key's residencies stay in completion order.
    order = done[np.argsort(keys[done], kind="stable")]
    key, hits = keys[order], residencies.hits[order]
    pos = np.arange(len(hits))
    starts = np.ones(len(hits), dtype=bool)
    starts[1:] = key[1:] != key[:-1]
    # The key's residencies completed before each one, at most four.
    behind = pos - np.maximum.accumulate(np.where(starts, pos, 0))
    count = np.minimum(behind, REGION_RING_SLOTS)
    cumulative = np.concatenate(([0], np.cumsum(hits)))
    has = count > 0
    count, at = count[has], pos[has]
    total = cumulative[at] - cumulative[at - count]
    diff = np.abs(hits[has] - (2 * total + count) // (2 * count))
    return np.bincount(np.minimum(diff, ERROR_BUCKETS - 1),
                       minlength=ERROR_BUCKETS).astype(np.int64)


def per_block_prediction_error(residencies: ResidencyLog) -> np.ndarray:
    """Histogram of |actual - predicted| hits, predicting each residency from
    the same block's previous (up to four) residencies."""
    return _error_histogram(residencies.addr, residencies)


def per_region_prediction_error(residencies: ResidencyLog) -> np.ndarray:
    """Same histogram but predicting from the last four completed residencies
    anywhere in the block's 128 KB region."""
    return _error_histogram(residencies.addr >> np.uint64(REGION_SHIFT), residencies)


def victim_quality(events: EventLog, trace: Trace,
                   geom: CacheGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """Rank each evicted victim among the replacement's candidates by next use.

    Candidates are the set's residents plus the incoming block; a victim's
    rank is how many candidates would be referenced strictly farther in the
    future (so rank 0 is the MIN-optimal choice and the worst possible rank
    equals the associativity). Bypass decisions score the incoming block.
    Every next use is a gather from :func:`compute_next_use` at a position
    the log recorded: a resident's latest access is next used where the
    block is next used after the event. Returns a histogram over ranks
    ``0..associativity``. An ``events`` of None raises
    :class:`~ehcsim.errors.MissingEventLog`; a log that cannot come from
    ``trace`` on ``geom`` raises ValueError: a way count other than the
    associativity, a victim way outside it, a position outside the trace,
    a resident position not before its event's, or a resident accessed
    again before the event.
    """
    if events is None:
        raise MissingEventLog("victim quality requires a recorded event log")
    ways = geom.associativity
    way = events.victim_way
    if events.resident_pos.shape[1] != ways or ((way >= ways) | (way < BYPASS)).any():
        raise ValueError(f"event log does not hold the ways of a {ways}-way cache")
    next_use = compute_next_use(trace, geom)
    at, resident = events.index, events.resident_pos
    if len(at) and (at.min() < 0 or at.max() >= len(trace) or resident.min() < 0):
        raise ValueError(f"event positions outside the trace of {len(trace)} accesses")
    if (resident >= at[:, None]).any():
        raise ValueError("a resident position is not before its event's index")
    incoming_use = next_use[at]
    resident_use = next_use[resident]
    if (resident_use <= at[:, None]).any():
        raise ValueError("a resident is accessed again before its event")
    bypassed = way == BYPASS
    victim_use = np.where(
        bypassed, incoming_use, resident_use[np.arange(len(at)), np.where(bypassed, 0, way)]
    )
    rank = (incoming_use > victim_use) + np.sum(resident_use > victim_use[:, None], axis=1)
    return np.bincount(rank, minlength=ways + 1).astype(np.int64)


def mean_rank(hist: np.ndarray) -> float:
    total = int(hist.sum())
    if total == 0:
        return 0.0
    return float((hist * np.arange(len(hist))).sum() / total)
