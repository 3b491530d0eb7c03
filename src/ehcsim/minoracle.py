"""Offline Belady MIN oracles, ground-truth analyses in numpy, and the
reference backend.

Everything here may look at the whole trace at once: next-use indices from a
stable sort of the block column, MIN simulation with and without bypass,
per-residency hit counts, hit-count prediction-error histograms, and
reuse-distance ranking of a policy's evicted victims (gathers from the
next-use column at the positions an event log records).

As the reference backend that :func:`ehcsim.runner.pick_backend` returns
without the native kernel, :func:`next_use`, :func:`run` and
:func:`prediction_error` answer the calls of :mod:`ehcsim._kernels` on the
reference engine with the same results and checks, which the test suite
enforces. MIN is one more policy of that loop, :class:`MinPolicy`, as it is
one more policy id of ``_kernel.c``.
"""

from __future__ import annotations

import numpy as np

from . import _kernels, runner
from .engine import BYPASS, CacheGeometry, DEFAULT_GEOMETRY, EventLog, ReplacementPolicy
from .errors import MissingEventLog
from .params import ERROR_BUCKETS, NO_NEXT_USE, REGION_RING_SLOTS, REGION_SHIFT
from .sampler import MinDecision
from .trace import Trace


class ResidencyLog:
    """The stays of blocks in the cache under MIN, one per fill: ``fill``,
    ``end`` and ``hits`` are views of ``table``, int64 residency rows as a
    backend's ``run`` writes them (:data:`ehcsim._kernels._ROW_FIELDS`),
    and ``addr`` (uint64) is the block-aligned address of each fill."""

    __slots__ = ("addr", "fill", "end", "hits")

    def __init__(self, table, addr):
        fields = dict(zip(_kernels._ROW_FIELDS, table.T))
        self.fill, self.end, self.hits = fields["fill"], fields["end"], fields["hits"]
        self.addr = addr

    def __len__(self) -> int:
        return len(self.addr)


def compute_next_use(trace: Trace, geom: CacheGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """For each access, the position of the next access to the same block
    (:data:`NO_NEXT_USE` when there is none)."""
    blocks = trace.addr >> np.uint64(geom.block_shift)
    # The sort is stable, so each block's accesses stay in trace order, and
    # every access is followed by its next use unless the block changes.
    order = np.argsort(blocks, kind="stable")
    blocks.sort()  # in place: the sorted blocks, without a second column
    last = np.ones(len(order), dtype=bool)
    last[:-1] = blocks[1:] != blocks[:-1]
    del blocks  # before the next-use column takes as much memory
    next_use = np.empty(len(order), dtype=np.int64)
    next_use[order[:-1]] = order[1:]
    next_use[order[last]] = NO_NEXT_USE
    return next_use


#: The reference backend's next use.
next_use = compute_next_use


class MinPolicy(ReplacementPolicy):
    """Belady's MIN on the reference engine: evict the first way whose block
    is next used farthest in the future, read from ``next_use`` at the way's
    latest access. With ``bypass`` the incoming block is not inserted when
    its own next use is strictly farther. Miss ``i`` sets ``evicted_at`` at
    its victim's latest access to ``i``, or at ``i`` itself when it
    bypasses; every other entry holds the trace length. A hit costs the
    policy nothing. The engine passes no trace position, so ``on_observe``
    counts them."""

    name = "min"

    def __init__(self, next_use: np.ndarray, bypass: bool = True):
        n = len(next_use)
        self.next_use = next_use.tolist()  # Python ints index and compare fastest
        self.evicted_at = np.full(n, n, dtype=np.int64)
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


def _write_rows(trace: Trace, geom: CacheGeometry, hit, evicted_at, rows) -> tuple[int, int]:
    """Write a MIN run's residency rows to ``rows`` as the kernel does,
    from its hit flags and eviction column, and return how many it wrote
    and the sum of their hits. In block order a stay is a miss and its
    block's hits up to the next miss, and it ends at ``evicted_at`` of its
    latest access; a bypass ends where it starts and is no row."""
    n = len(trace)
    order = np.argsort(trace.addr >> np.uint64(geom.block_shift), kind="stable")
    # Misses in block order, fills and bypasses alike; a stay runs to the next.
    misses = np.append(np.flatnonzero(hit[order] == 0), n)
    start, last = misses[:-1], misses[1:] - 1
    fill, end = order[start], evicted_at[order[last]]
    filled = end != fill
    fill, end, hits = fill[filled], end[filled], (last - start)[filled]
    gone, resident = np.flatnonzero(end < n), np.flatnonzero(end == n)
    done = np.concatenate((gone[np.argsort(end[gone])], resident[np.argsort(fill[resident])]))
    table = rows.reshape(n, len(_kernels._ROW_FIELDS))
    table[:len(done)] = np.column_stack((fill, end, hits))[done]  # in _ROW_FIELDS order
    return len(done), int(hits[done].sum())


def run(trace: Trace, name: str, geom: CacheGeometry, seed: int, record_events: bool = False,
        next_use=None, bypass: bool = False, rows: bool = False):
    """:func:`ehcsim._kernels.run` on the reference engine, with the same
    arguments, checks and results. MIN is :class:`MinPolicy`; a built-in
    policy given ``next_use`` ranks its event log against that column as
    :func:`victim_quality` does."""
    n = len(trace)
    rows, ranks = _kernels.check_outputs(trace, name, geom, next_use, bypass, rows)
    policy = MinPolicy(next_use, bypass) if name == "min" else runner.make_policy(name, geom, seed)
    stats, events, hit = runner.simulate(trace, policy, geom,
                                         record_events=record_events or ranks is not None)
    sampler = getattr(policy, "sampler", None)  # Hawkeye's and EHC's OPTgen
    row_hits = 0
    if rows is not None:
        count, row_hits = _write_rows(trace, geom, hit, policy.evicted_at, rows)
        rows = rows[:len(_kernels._ROW_FIELDS) * count]
    if ranks is not None:
        ranks[:] = _rank_histogram(events, next_use, geom.associativity)
        ranks = ranks.tolist()
    _kernels.check_result(stats, n, 0 if sampler is None else
                          sum(h.seen for h in sampler.histories.values()), rows, row_hits, ranks)
    return stats, events if record_events else None, hit, rows, ranks


def _residency_log(trace: Trace, geom: CacheGeometry, rows) -> ResidencyLog:
    """The MIN residency rows that a backend's ``run`` returned."""
    table = np.asarray(rows).reshape(-1, len(_kernels._ROW_FIELDS))
    fill = table[:, _kernels._ROW_FIELDS.index("fill")]
    shift = np.uint64(geom.block_shift)
    return ResidencyLog(table, (trace.addr[fill] >> shift) << shift)


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
    requested and None otherwise. ``backend`` is
    :func:`ehcsim.runner.pick_backend`'s: ``"auto"``, ``"kernel"`` or
    ``"reference"``, with its errors.
    """
    lib = runner.pick_backend(backend, geom)
    n = len(trace)
    next_use = lib.next_use(trace, geom)
    stats, events, hit, rows, _ = lib.run(trace, "min", geom, 0, record_events=record_events,
                                          next_use=next_use, bypass=bypass, rows=True)

    # A block's first access is the next use of no earlier access.
    decisions = np.full(n, MinDecision.COLD_MISS, dtype=np.uint8)
    decisions[next_use[next_use != NO_NEXT_USE]] = MinDecision.MISS
    decisions[hit == 1] = MinDecision.HIT
    del next_use  # as long as the trace, and the residency log needs none of it
    residencies = _residency_log(trace, geom, rows)
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


def prediction_error(trace: Trace, geom: CacheGeometry, rows, by_region: bool):
    """:func:`ehcsim._kernels.prediction_error` on the residency log of the
    rows that :func:`run` returned."""
    histogram = per_region_prediction_error if by_region else per_block_prediction_error
    return histogram(_residency_log(trace, geom, rows)).tolist()


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
    return _rank_histogram(events, compute_next_use(trace, geom), geom.associativity)


def _rank_histogram(events: EventLog, next_use: np.ndarray, ways: int) -> np.ndarray:
    """:func:`victim_quality` of ``events`` against the next-use column
    ``next_use`` of a ``ways``-way cache."""
    way = events.victim_way
    if events.resident_pos.shape[1] != ways or ((way >= ways) | (way < BYPASS)).any():
        raise ValueError(f"event log does not hold the ways of a {ways}-way cache")
    at, resident = events.index, events.resident_pos
    if len(at) and (at.min() < 0 or at.max() >= len(next_use) or resident.min() < 0):
        raise ValueError(f"event positions outside the trace of {len(next_use)} accesses")
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
