"""Offline Belady MIN oracles and ground-truth analyses, in numpy.

Everything here may look at the whole trace at once: next-use indices from a
stable sort of the block column, MIN simulation with and without bypass,
per-residency hit counts, hit-count prediction-error histograms, and
reuse-distance ranking of a policy's evicted victims (gathers from the
next-use column at the positions an event log records).

MIN is one more policy of the shared cache loop: :class:`MinPolicy` on the
reference engine, and its policy id in ``_kernel.c`` on the native kernel
when that could be built. Both write one residency row per fill from the
loop, evictions as they happen and then the lines still resident, and give
the same hit flags, rows and event logs, which the test suite enforces.
The reference engine takes its next-use column from the block sort of
:func:`compute_next_use`, and from the same sort the hit counts of its
rows; the kernel takes next use from its own scan
(:func:`ehcsim._kernels.next_use`) and counts hits in its loop. The functions here are the numpy
references of the kernel's next use, prediction-error histograms and
victim ranks, which :mod:`ehcsim.analysis` runs without numpy when the
kernel is loaded.
"""

from __future__ import annotations

from array import array

import numpy as np

from . import _kernels
from .analysis import mean_rank  # noqa: F401  (a public name here too)
from .engine import BYPASS, CacheGeometry, DEFAULT_GEOMETRY, EventLog, ReplacementPolicy, simulate
from .errors import MissingEventLog
from .params import ERROR_BUCKETS, NO_NEXT_USE, REGION_RING_SLOTS, REGION_SHIFT
from .sampler import MinDecision
from .trace import Trace


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
    return _next_use(*_block_order(trace, geom))


def _block_order(trace: Trace, geom: CacheGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the accesses sorted by block, and a mask of each
    block's last access in that order. The sort is stable, so each block's
    accesses stay in trace order."""
    blocks = trace.addr >> np.uint64(geom.block_shift)
    order = np.argsort(blocks, kind="stable")
    blocks.sort()  # in place: the sorted blocks, without a second column
    last = np.ones(len(order), dtype=bool)
    last[:-1] = blocks[1:] != blocks[:-1]
    return order, last


def _next_use(order: np.ndarray, last: np.ndarray) -> np.ndarray:
    # In block order every access is followed by its next use, unless the
    # block changes there.
    next_use = np.empty(len(order), dtype=np.int64)
    next_use[order[:-1]] = order[1:]
    next_use[order[last]] = NO_NEXT_USE
    return next_use


def _block_rank(order: np.ndarray, last: np.ndarray) -> np.ndarray:
    """For each access, the number of earlier accesses to its block."""
    pos = np.arange(len(order))
    first = np.roll(last, 1)  # a block's first access follows the last of the one before
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(first, pos, 0))
    return rank


class MinPolicy(ReplacementPolicy):
    """Belady's MIN on the reference engine: evict the first way whose block
    is next used farthest in the future, read from ``next_use`` at the way's
    latest access. With ``bypass`` the incoming block is not inserted when
    its own next use is strictly farther. Each eviction appends the
    ``(fill, end, latest access)`` of its victim's stay to ``rows``;
    :meth:`residency_rows` adds the lines still resident. A hit costs the
    policy nothing: every access to the block after its fill, up to its
    latest access, is one of the stay's hits, so :func:`simulate_min`
    counts them from the block order once the run is over. The engine
    passes no trace position, so ``on_observe`` counts them. ``rows`` is a flat int64 array: 24 bytes
    a row, where a tuple of three positions takes over a hundred."""

    name = "min"

    def __init__(self, next_use: np.ndarray, bypass: bool = True):
        self.next_use = next_use.tolist()  # Python ints index and compare fastest
        self.bypass = bypass
        self.position = -1
        self.bypasses = 0
        self.fills = {}  # way's BlockState -> fill position of its resident line
        self.rows = array("q")

    def on_observe(self, set_index, tag, addr, pc) -> None:
        self.position += 1

    def on_insert(self, set_index, ways, way, addr, pc) -> None:
        self.fills[ways[way]] = self.position

    def choose_victim(self, set_index, ways):
        next_use, i = self.next_use, self.position
        uses = [next_use[blk.recency_stamp] for blk in ways]
        farthest = max(uses)
        if self.bypass and next_use[i] > farthest:
            self.bypasses += 1
            return BYPASS, False
        way = uses.index(farthest)  # the first way on ties
        blk = ways[way]
        self.rows.extend((self.fills[blk], i, blk.recency_stamp))
        return way, False

    def residency_rows(self, n: int) -> np.ndarray:
        """The fill, end and latest-access columns of every row of a run
        over ``n`` accesses, in completion order: the evictions as they
        happened, then the resident lines by fill."""
        fills = self.fills
        tail = array("q", [v for blk in sorted(fills, key=fills.__getitem__)
                           for v in (fills[blk], n, blk.recency_stamp)])
        return np.frombuffer(self.rows + tail, dtype=np.int64).reshape(-1, 3).T

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
    n = len(trace)
    if kernel:
        next_use = _kernels.next_use(trace, geom)
        rows = np.empty((3, n), dtype=np.int64)
        stats, events, hit = _kernels.run(trace, "min", geom, 0, record_events=record_events,
                                          next_use=next_use, bypass=bypass, rows=rows.ravel())
        fill, end, hits = rows[:, :stats.misses - stats.per_policy["bypasses"]]
    else:
        order, last = _block_order(trace, geom)
        next_use = _next_use(order, last)
        policy = MinPolicy(next_use, bypass)
        stats, events, hit = simulate(trace, policy, geom, record_events=record_events)
        fill, end, latest = policy.residency_rows(n)
        rank = _block_rank(order, last)
        hits = rank[latest] - rank[fill]

    # A block's first access is the next use of no earlier access.
    decisions = np.full(n, MinDecision.COLD_MISS, dtype=np.uint8)
    decisions[next_use[next_use != NO_NEXT_USE]] = MinDecision.MISS
    decisions[hit == 1] = MinDecision.HIT
    del next_use  # as long as the trace, and the residency log needs none of it
    shift = np.uint64(geom.block_shift)
    residencies = ResidencyLog((trace.addr[fill] >> shift) << shift, fill, end, hits)
    return stats, decisions, residencies, events


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
