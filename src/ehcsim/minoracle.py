"""Offline Belady MIN oracles and ground-truth analyses.

Everything here may look at the whole trace at once: next-use indices from a
stable sort of the block column, MIN simulation with and without bypass,
per-residency hit counts, hit-count prediction-error histograms, and
reuse-distance ranking of a policy's evicted victims (gathers from the
next-use column at the positions an event log records).

MIN is one more policy of the shared cache loop: :class:`MinPolicy` on the
reference engine, and its policy id in ``_kernel.c`` on the native kernel
when that could be built. Both take the next-use column computed here with
numpy, write one eviction column and give the same hit flags and event
logs, which the test suite enforces. :func:`simulate_min` derives the
:class:`ResidencyLog` from the hit flags and that column with array code,
and the prediction-error histograms are array code over it.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .engine import BYPASS, CacheGeometry, DEFAULT_GEOMETRY, EventLog, ReplacementPolicy, simulate
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


def _block_order(trace: Trace, geom: CacheGeometry):
    """``(order, next_use)``: the accesses stably sorted by block, and
    every access's next use."""
    blocks = trace.addr >> np.uint64(geom.block_shift)
    # A stable sort keeps each block's accesses in trace order, so every
    # access is followed by its next use unless the block changes there.
    order = np.argsort(blocks, kind="stable")
    blocks = blocks[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = blocks[1:] != blocks[:-1]
    next_use = np.empty(len(order), dtype=np.int64)
    next_use[order[:-1]] = order[1:]
    next_use[order[last]] = NO_NEXT_USE
    return order, next_use


def compute_next_use(trace: Trace, geom: CacheGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """For each access, the position of the next access to the same block
    (:data:`NO_NEXT_USE` when there is none)."""
    return _block_order(trace, geom)[1]


class MinPolicy(ReplacementPolicy):
    """Belady's MIN on the reference engine: evict the first way whose block
    is next used farthest in the future, read from ``next_use`` at the way's
    latest access. With ``bypass`` the incoming block is not inserted when
    its own next use is strictly farther. Miss ``i`` sets ``evicted_at`` at
    its victim's latest access to ``i``, or at ``i`` itself when it
    bypasses; the caller fills the column with the trace length first. The
    engine passes no trace position, so ``on_observe`` counts them."""

    name = "min"

    def __init__(self, next_use: np.ndarray, evicted_at: np.ndarray, bypass: bool = True):
        self.next_use = next_use.tolist()  # Python ints index and compare fastest
        self.evicted_at = evicted_at
        self.bypass = bypass
        self.position = -1
        self.bypasses = 0

    def on_observe(self, set_index, tag, addr, pc) -> None:
        self.position += 1

    def choose_victim(self, set_index, ways):
        next_use, i = self.next_use, self.position
        uses = [next_use[blk.recency_stamp] for blk in ways]
        farthest = max(uses)
        if self.bypass and next_use[i] > farthest:
            self.bypasses += 1
            self.evicted_at[i] = i
            return BYPASS, False
        way = uses.index(farthest)  # the first way on ties
        self.evicted_at[ways[way].recency_stamp] = i
        return way, False

    def extra_stats(self) -> dict:
        return {"bypasses": self.bypasses}


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
    ``residencies`` is a :class:`ResidencyLog` of every fill in completion
    order, the order the prediction-error histograms read: evictions by
    end position, then the blocks still resident at the end of the trace
    by fill position; ``events`` is an :class:`EventLog` when
    requested and None otherwise. ``backend`` chooses the execution path as
    in :func:`ehcsim.runner.run_policy`: ``"auto"`` runs the native kernel
    unless it could not be built, ``"kernel"`` raises
    :class:`~ehcsim.errors.UsageError` when it could not, and
    ``"reference"`` always runs :class:`MinPolicy` on the reference engine.
    A geometry beyond the kernel's bound raises
    :class:`~ehcsim.errors.GeometryTooLarge` on either backend.
    """
    kernel = _kernels.use_kernel(backend, geom)
    order, next_use = _block_order(trace, geom)
    n = len(trace)
    evicted_at = np.full(n, n, dtype=np.int64)
    if kernel:
        stats, events, hit = _kernels.run(trace, "min", geom, 0, record_events=record_events,
                                          next_use=next_use, evicted_at=evicted_at,
                                          bypass=bypass)
    else:
        stats, events, hit = simulate(trace, MinPolicy(next_use, evicted_at, bypass), geom,
                                      record_events=record_events)

    # A block's first access is the next use of no earlier access.
    decisions = np.full(n, MinDecision.COLD_MISS, dtype=np.uint8)
    decisions[next_use[next_use != NO_NEXT_USE]] = MinDecision.MISS
    decisions[hit == 1] = MinDecision.HIT
    del next_use  # the rows need none of it, and it is as long as the trace
    residencies = _residencies(trace, geom, order, hit, evicted_at)
    return stats, decisions, residencies, events


def _residencies(trace, geom, order, hit, evicted_at) -> ResidencyLog:
    """Every fill of a MIN run as one row, from its hit flags and eviction
    column. In block order, a stay is a miss followed by its block's hits
    up to the block's next miss, and it ends at ``evicted_at`` of its
    latest access; a bypassed miss ends where it starts and is no row. The
    rows are in completion order: the evictions by end, then the blocks
    still resident by fill. No two evictions share an end, and no two
    stays a fill, so this is the order by end, then fill."""
    n = len(order)
    # Misses in block order, fills and bypasses alike; a stay runs to the next.
    misses = np.append(np.flatnonzero(hit[order] == 0), n)
    start, last = misses[:-1], misses[1:] - 1
    fill, end = order[start], evicted_at[order[last]]
    filled = end != fill
    fill, end, hits = fill[filled], end[filled], (last - start)[filled]
    gone, resident = np.flatnonzero(end < n), np.flatnonzero(end == n)
    rows = np.concatenate((gone[np.argsort(end[gone])], resident[np.argsort(fill[resident])]))
    shift = np.uint64(geom.block_shift)
    return ResidencyLog((trace.addr[fill[rows]] >> shift) << shift,
                        fill[rows], end[rows], hits[rows])


def _error_histogram(keys: np.ndarray, residencies: ResidencyLog) -> np.ndarray:
    """Take residencies in completion order (by end, then fill), predict
    each hit count as the round-half-up mean of its key's previous (up to
    four) counts, and bucket |actual - predicted|. A key's first residency
    has nothing to predict from and is not counted. This is the online
    predictor's rule (``RegionHitTable.expected_hits``), window included."""
    # By key, each key's residencies in completion order; lexsort is stable.
    order = np.lexsort((residencies.fill, residencies.end, keys))
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
