"""Loop implementations of the MIN oracle, the hit-count prediction-error
histograms, victim scoring and the region trace generator.

These are the straightforward versions that :mod:`ehcsim.minoracle` and
:mod:`ehcsim.trace` replaced with array code; the property tests check that
both agree.
"""

import collections
from bisect import bisect_right

import numpy as np

from ehcsim import BYPASS, NO_NEXT_USE, MinDecision, SimStats
from ehcsim.params import REGION_SHIFT
from ehcsim.trace import (
    _CLASS_MEDIUM, _CLASS_SHORT, _CLASS_TRAFFIC, _REGION_CLASS_CYCLE, BLOCK_BYTES,
    BLOCKS_PER_REGION, REGION_SLOT_STRIDE, SHORT_HOT_BLOCKS,
)

#: One stay of a block in the cache under MIN, as a row.
Residency = collections.namedtuple("Residency", "addr fill end hits")

#: One replacement decision, as a row: the missing access's position, the
#: victim way, the no-averse flag and every way's latest access position.
Event = collections.namedtuple("Event", "index victim_way no_averse resident_pos")


def loop_next_use(trace, geom):
    """Backward scan with a dict of each block's latest position; blocks are
    Python ints, so an offset of 64 bits or more puts every address in
    block 0."""
    n = len(trace)
    blocks = [a >> geom.block_offset_bits for a in trace.addr.tolist()]
    next_use = np.full(n, NO_NEXT_USE, dtype=np.int64)
    last = {}
    for i in range(n - 1, -1, -1):
        b = blocks[i]
        p = last.get(b)
        if p is not None:
            next_use[i] = p
        last[b] = i
    return next_use


def loop_simulate_min(trace, geom, bypass=True):
    """MIN with per-set dicts; returns (stats, decisions, residencies, events)
    with the residencies as a list of Residency rows and the events as a
    list of Event rows."""
    n = len(trace)
    next_use = loop_next_use(trace, geom)
    assoc = geom.associativity

    tags = collections.defaultdict(dict)     # set -> {tag: way}
    way_tag = collections.defaultdict(dict)  # set -> {way: (next_pos, fill, hits, last)}
    stats = SimStats()
    decisions = np.empty(n, dtype=np.uint8)
    residencies = []
    events = []
    seen = set()
    bypasses = 0

    block_mask = ~((1 << geom.block_offset_bits) - 1)
    for i in range(n):
        addr = int(trace.addr[i])
        block = addr & block_mask
        si = geom.set_index(addr)
        tag = geom.tag(addr)
        resident = tags[si]
        ways = way_tag[si]

        stats.accesses += 1
        way = resident.get(tag)
        if way is not None:
            stats.hits += 1
            decisions[i] = MinDecision.HIT
            _, fill, hits, _ = ways[way]
            ways[way] = (int(next_use[i]), fill, hits + 1, i)
            continue

        stats.misses += 1
        decisions[i] = MinDecision.MISS if block in seen else MinDecision.COLD_MISS
        seen.add(block)

        if len(resident) < assoc:
            way = len(resident)
        else:
            victim = 0
            victim_next = -1
            for w in range(assoc):
                if ways[w][0] > victim_next:
                    victim = w
                    victim_next = ways[w][0]
            skip = bypass and int(next_use[i]) > victim_next
            by_way = {w: t for t, w in resident.items()}
            events.append(Event(
                index=i,
                victim_way=BYPASS if skip else victim,
                no_averse=False,
                resident_pos=tuple(ways[w][3] for w in range(assoc)),
            ))
            if skip:
                bypasses += 1
                continue
            _, fill, hits, _ = ways[victim]
            victim_tag = by_way[victim]
            residencies.append(Residency(
                addr=geom.block_addr(si, victim_tag), fill=fill, end=i, hits=hits,
            ))
            del resident[victim_tag]
            stats.replacements_total += 1
            way = victim

        resident[tag] = way
        ways[way] = (int(next_use[i]), i, 0, i)

    for si, resident in tags.items():
        for tag, way in resident.items():
            _, fill, hits, _ = way_tag[si][way]
            residencies.append(Residency(
                addr=geom.block_addr(si, tag), fill=fill, end=n, hits=hits,
            ))

    stats.per_policy["bypasses"] = bypasses
    residencies.sort(key=lambda r: (r.end, r.fill))
    return stats, decisions, residencies, events


def loop_prediction_error(residencies, key):
    """Prediction-error histogram from a walk in completion order with a
    deque of each key's last four hit counts."""
    hist = np.zeros(5, dtype=np.int64)
    history = collections.defaultdict(lambda: collections.deque(maxlen=4))
    for rec in sorted(residencies, key=lambda r: (r.end, r.fill)):
        past = history[key(rec)]
        if past:
            predicted = (2 * sum(past) + len(past)) // (2 * len(past))
            hist[min(abs(rec.hits - predicted), 4)] += 1
        past.append(rec.hits)
    return hist


def loop_victim_quality(events, trace, geom):
    """Rank histogram from a per-block position list and bisect: each
    candidate's block-aligned address is read from the trace at its
    position and searched for after the event's index."""
    block_mask = ~((1 << geom.block_offset_bits) - 1)
    aligned = [a & block_mask for a in trace.addr.tolist()]
    positions = collections.defaultdict(list)
    for i, block in enumerate(aligned):
        positions[block].append(i)

    def next_use_after(block, i):
        pos = positions.get(block)
        if pos:
            k = bisect_right(pos, i)
            if k < len(pos):
                return pos[k]
        return NO_NEXT_USE

    hist = np.zeros(geom.associativity + 1, dtype=np.int64)
    for ev in events:
        uses = [next_use_after(aligned[p], ev.index) for p in ev.resident_pos]
        uses.append(next_use_after(aligned[ev.index], ev.index))
        victim_use = uses[-1] if ev.victim_way == BYPASS else uses[ev.victim_way]
        hist[sum(1 for u in uses if u > victim_use)] += 1
    return hist


def loop_gen_region(spec, rng):
    """The region generator's addresses, one region per pass over the
    region each access chose."""
    n_regions = max(4, spec.block_count // BLOCKS_PER_REGION)
    classes = np.array(
        [_REGION_CLASS_CYCLE[r % len(_REGION_CLASS_CYCLE)] for r in range(n_regions)]
    )
    weights = np.array([_CLASS_TRAFFIC[c] for c in classes])
    cdf = np.cumsum(weights / weights.sum())
    chosen = np.searchsorted(cdf, rng.random(spec.length), side="right")
    chosen = np.minimum(chosen, n_regions - 1)

    addr = np.zeros(spec.length, dtype=np.uint64)
    for r in range(n_regions):
        pos = np.nonzero(chosen == r)[0]
        if len(pos) == 0:
            continue
        k = np.arange(len(pos), dtype=np.uint64)
        cls = classes[r]
        if cls == _CLASS_SHORT:
            slot = k % SHORT_HOT_BLOCKS
            region_id = np.full(len(pos), r, dtype=np.uint64)
        elif cls == _CLASS_MEDIUM:
            slot = k % BLOCKS_PER_REGION
            region_id = np.full(len(pos), r, dtype=np.uint64)
        else:
            # Streaming: every visit touches a fresh block, spilling into a
            # new region id once the region's 64 slots are consumed.
            slot = k % BLOCKS_PER_REGION
            region_id = np.uint64(n_regions) * (k // BLOCKS_PER_REGION + np.uint64(1))
            region_id += np.uint64(r)
        addr[pos] = (region_id << np.uint64(REGION_SHIFT)) | (
            slot * np.uint64(REGION_SLOT_STRIDE * BLOCK_BYTES)
        )
    return addr
