"""Fused simulation kernels: the fast path behind :func:`ehcsim.runner.run_policy`.

One flat loop per trace covers all built-in policies (dispatched on a policy
id), with cache state held in preallocated tables. The loop is decorated
with ``numba.njit`` unless the ``EHCSIM_NUMBA`` environment variable
disables it (``0``/``false``/``no``/``off``) or numba is missing, in which
case the very same function runs as interpreted Python over memoryviews of
the trace columns and lists of the state tables — bit-identical results
either way, which the test suite enforces against the reference engine.

With ``record_events`` the loop also writes each replacement into one
preallocated int64 buffer, which ``run`` turns into an
:class:`~ehcsim.engine.EventLog`. The kernels trade generality for speed:
no invariant checking, only the built-in policies, and addresses/PCs must
fit in signed 64-bit space. Anything else runs on the reference engine.
"""

from __future__ import annotations

import os

import numpy as np

from .engine import CacheGeometry, EventLog, SimStats
from .policies import brrip_draws
from .sampler import SAMPLE_PERIOD, WINDOW_SLOTS_PER_WAY
from .trace import Trace

_env = os.environ.get("EHCSIM_NUMBA", "1").strip().lower()
_want_jit = _env not in ("0", "false", "no", "off")

JIT_ENABLED = False
if _want_jit:
    try:
        from numba import njit as _njit

        JIT_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        pass


def _jit(fn):
    if JIT_ENABLED:
        return _njit(cache=True)(fn)
    return fn


# How ``run`` hands its arrays to ``_simulate``. Under numba, as they are.
# Interpreted, CPython indexes memoryviews and lists far faster than numpy
# arrays, whose items come back as boxed numpy scalars: trace-length columns
# go in as zero-copy memoryviews (writes to ``hit_flags`` land in the array)
# and the geometry-sized tables as lists.
if JIT_ENABLED:
    def _column(a):
        return a

    _table = _column
else:
    _column, _table = memoryview, np.ndarray.tolist


_POLICY_IDS = {
    "lru": 0,
    "srrip": 1,
    "brrip": 2,
    "drrip": 3,
    "ship": 4,
    "hawkeye": 5,
    "ehc": 6,
}

#: Addresses/PCs at or above this cannot safely be viewed as int64.
_INT64_LIMIT = 1 << 62

#: Leading fields of an event row: trace position, victim way, no_averse.
#: The resident block of every way follows, as it was before the fill.
_EVENT_FIELDS = 3


@_jit
def _xor_fold(value, bits):
    mask = (1 << bits) - 1
    out = 0
    while value != 0:
        out ^= value & mask
        value >>= bits
    return out


@_jit
def _region_push(region_tag, region_ring, region_count, region_head, addr, hits):
    rid = addr >> 17
    idx = _xor_fold(rid, 10)
    if region_tag[idx] != rid:
        region_tag[idx] = rid
        region_count[idx] = 0
        region_head[idx] = 0
    h = region_head[idx]
    region_ring[idx][h] = hits
    region_head[idx] = (h + 1) % 4
    if region_count[idx] < 4:
        region_count[idx] += 1


@_jit
def _region_expected(region_tag, region_ring, region_count, addr):
    rid = addr >> 17
    idx = _xor_fold(rid, 10)
    cnt = region_count[idx]
    if region_tag[idx] != rid or cnt == 0:
        return 1
    ring = region_ring[idx]
    total = 0
    for k in range(cnt):
        total += ring[k]
    avg = (2 * total + cnt) // (2 * cnt)
    if avg > 7:
        avg = 7
    return avg


@_jit
def _simulate(
    addr, pc,
    num_sets, assoc, block_bits, set_bits,
    policy_id, draws, aging, fixed_init, sample_period,
    valid, tagv, rrpv, efh, stamp, lastpc,
    sig, outcome, shct,
    pc_tbl,
    region_tag, region_ring, region_count, region_head,
    occ, occ_base, occ_len,
    slot_live, slot_tag, slot_pc, slot_addr, slot_pos, slot_hits,
    record_events, events,
    hit_flags, out,
):
    # Written for both modes: 2-D state is indexed ``arr[i][j]`` (a row is a
    # view under numba and a list when interpreted), and sizes come from
    # ``len`` so lists and memoryviews work as well as arrays. With
    # ``record_events`` set, replacement k fills the flat row
    # ``events[k * ev_width:(k + 1) * ev_width]``.
    n = len(addr)
    ev_width = _EVENT_FIELDS + assoc
    cap = len(occ[0])
    set_mask = num_sets - 1
    hits = 0
    evictions = 0
    no_averse_count = 0
    long_inserts = 0
    optgen_cold = 0
    optgen_hit = 0
    optgen_miss = 0
    psel = 512
    ins = 0
    for i in range(n):
        a = addr[i]
        p = pc[i]
        block = a >> block_bits
        si = block & set_mask

        # Sampled-set MIN emulation feeding the hawkeye/ehc predictors.
        if policy_id >= 5 and si % sample_period == 0:
            s = si // sample_period
            t = block >> set_bits
            orow = occ[s]
            live = slot_live[s]
            stag = slot_tag[s]
            spc = slot_pc[s]
            saddr = slot_addr[s]
            spos = slot_pos[s]
            shits = slot_hits[s]
            hit_slot = -1
            for k in range(cap):
                if stag[k] == t and live[k] == 1:
                    hit_slot = k
                    break
            carried_hits = 0
            ent_addr = a
            if hit_slot < 0:
                optgen_cold += 1
            else:
                pos0 = spos[hit_slot]
                end = occ_base[s] + occ_len[s]
                ok = True
                for j in range(pos0, end):
                    if orow[j % cap] >= assoc:
                        ok = False
                        break
                fi = _xor_fold(spc[hit_slot], 13)
                if ok:
                    optgen_hit += 1
                    for j in range(pos0, end):
                        orow[j % cap] += 1
                    carried_hits = shits[hit_slot] + 1
                    if pc_tbl[fi] < 7:
                        pc_tbl[fi] += 1
                else:
                    optgen_miss += 1
                    if pc_tbl[fi] > 0:
                        pc_tbl[fi] -= 1
                    _region_push(region_tag, region_ring, region_count,
                                 region_head, saddr[hit_slot], shits[hit_slot])
                ent_addr = saddr[hit_slot]
                live[hit_slot] = 0
            new_pos = occ_base[s] + occ_len[s]
            k2 = new_pos % cap
            if occ_len[s] == cap:
                if live[k2] == 1:
                    _region_push(region_tag, region_ring, region_count,
                                 region_head, saddr[k2], shits[k2])
                    live[k2] = 0
                occ_base[s] += 1
            else:
                occ_len[s] += 1
            orow[k2] = 0
            live[k2] = 1
            stag[k2] = t
            spc[k2] = p
            saddr[k2] = ent_addr
            spos[k2] = new_pos
            shits[k2] = carried_hits

        vrow = valid[si]
        trow = tagv[si]
        rrow = rrpv[si]
        way = -1
        for w in range(assoc):
            if trow[w] == block and vrow[w] == 1:
                way = w
                break

        if way >= 0:
            hits += 1
            hit_flags[i] = 1
            if policy_id == 0:
                stamp[si][way] = i
            elif policy_id <= 3:
                rrow[way] = 0
            elif policy_id == 4:
                rrow[way] = 0
                outcome[si][way] = 1
            else:
                lastpc[si][way] = p
                if policy_id == 6:
                    erow = efh[si]
                    if erow[way] > 0:
                        erow[way] -= 1
                fi = _xor_fold(p, 13)
                rrow[way] = 0 if pc_tbl[fi] >= 4 else 7
            continue

        way = -1
        for w in range(assoc):
            if vrow[w] == 0:
                way = w
                break
        if way < 0:
            no_averse = 0
            if policy_id == 0:
                srow = stamp[si]
                way = 0
                for w in range(1, assoc):
                    if srow[w] < srow[way]:
                        way = w
            elif policy_id <= 4:
                while way < 0:
                    for w in range(assoc):
                        if rrow[w] == 7:
                            way = w
                            break
                    if way < 0:
                        for w in range(assoc):
                            rrow[w] += 1
                if policy_id == 4:
                    sgv = sig[si][way]
                    if outcome[si][way] == 1:
                        if shct[sgv] < 7:
                            shct[sgv] += 1
                    elif shct[sgv] > 0:
                        shct[sgv] -= 1
            else:
                erow = efh[si]
                found = -1
                best = 0
                for w in range(assoc):
                    if rrow[w] == 7:
                        found = w
                        break
                    if policy_id == 5:
                        if rrow[w] > rrow[best]:
                            best = w
                    elif erow[w] - rrow[w] < erow[best] - rrow[best]:
                        best = w
                if found >= 0:
                    way = found
                else:
                    way = best
                    no_averse = 1
                    no_averse_count += 1
                    fi = _xor_fold(lastpc[si][way], 13)
                    if pc_tbl[fi] > 0:
                        pc_tbl[fi] -= 1
            if record_events:
                base = evictions * ev_width
                events[base] = i
                events[base + 1] = way
                events[base + 2] = no_averse
                for w in range(assoc):
                    events[base + _EVENT_FIELDS + w] = trow[w]
            evictions += 1

        vrow[way] = 1
        trow[way] = block
        if policy_id == 0:
            stamp[si][way] = i
        elif policy_id == 1:
            rrow[way] = 6
        elif policy_id == 2:
            d = draws[ins]
            ins += 1
            if d == 1:
                long_inserts += 1
                rrow[way] = 6
            else:
                rrow[way] = 7
        elif policy_id == 3:
            off = si % 64
            if off == 0:
                if psel < 1023:
                    psel += 1
            elif off == 33:
                if psel > 0:
                    psel -= 1
            if off == 33 or (off != 0 and psel >= 512):
                d = draws[ins]
                ins += 1
                rrow[way] = 6 if d == 1 else 7
            else:
                rrow[way] = 6
        elif policy_id == 4:
            sgv = _xor_fold(p, 14)
            sig[si][way] = sgv
            outcome[si][way] = 0
            rrow[way] = 7 if shct[sgv] == 0 else 6
        else:
            lastpc[si][way] = p
            fi = _xor_fold(p, 13)
            if pc_tbl[fi] >= 4:
                if aging == 1:
                    for w2 in range(assoc):
                        if w2 != way and vrow[w2] == 1 and rrow[w2] < 6:
                            rrow[w2] += 1
                rrow[way] = 0
            else:
                rrow[way] = 7
            if policy_id == 6:
                if fixed_init >= 0:
                    efh[si][way] = fixed_init
                else:
                    efh[si][way] = _region_expected(
                        region_tag, region_ring, region_count, a
                    )

    out[0] = n
    out[1] = hits
    out[2] = n - hits
    out[3] = evictions
    out[4] = evictions
    out[5] = no_averse_count
    out[6] = long_inserts
    out[7] = psel
    out[8] = optgen_cold
    out[9] = optgen_hit
    out[10] = optgen_miss
    return 0


def supports(trace: Trace, name: str) -> bool:
    """Whether the kernel path can reproduce this run exactly."""
    if name not in _POLICY_IDS:
        return False
    if len(trace) == 0:
        return True
    return (
        int(trace.addr.max()) < _INT64_LIMIT and int(trace.pc.max()) < _INT64_LIMIT
    )


def run(
    trace: Trace,
    name: str,
    geom: CacheGeometry,
    seed: int,
    record_hits: bool = False,
    record_events: bool = False,
    ehc_fixed_init: int | None = None,
    aging: bool = True,
):
    """Kernel-path counterpart of :func:`ehcsim.engine.simulate`."""
    policy_id = _POLICY_IDS[name]
    n = len(trace)
    num_sets, assoc = geom.num_sets, geom.associativity

    # Zero-copy: the trace keeps its columns as contiguous uint64, and
    # ``supports`` has checked that every value fits in int64.
    addr = trace.addr.view(np.int64)
    pc = trace.pc.view(np.int64)
    if name in ("brrip", "drrip"):
        draws = brrip_draws(seed, n)
    else:
        draws = np.zeros(1, dtype=np.uint8)

    valid = np.zeros((num_sets, assoc), dtype=np.int64)
    tagv = np.zeros((num_sets, assoc), dtype=np.int64)
    rrpv = np.zeros((num_sets, assoc), dtype=np.int64)
    efh = np.zeros((num_sets, assoc), dtype=np.int64)
    stamp = np.zeros((num_sets, assoc), dtype=np.int64)
    lastpc = np.zeros((num_sets, assoc), dtype=np.int64)
    sig = np.zeros((num_sets, assoc), dtype=np.int64)
    outcome = np.zeros((num_sets, assoc), dtype=np.int64)
    shct = np.zeros(1 << 14, dtype=np.int64)
    pc_tbl = np.full(1 << 13, 4, dtype=np.int64)
    region_tag = np.full(1 << 10, -1, dtype=np.int64)
    region_ring = np.zeros((1 << 10, 4), dtype=np.int64)
    region_count = np.zeros(1 << 10, dtype=np.int64)
    region_head = np.zeros(1 << 10, dtype=np.int64)

    nsamp = (num_sets + SAMPLE_PERIOD - 1) // SAMPLE_PERIOD
    cap = WINDOW_SLOTS_PER_WAY * assoc
    occ = np.zeros((nsamp, cap), dtype=np.int64)
    occ_base = np.zeros(nsamp, dtype=np.int64)
    occ_len = np.zeros(nsamp, dtype=np.int64)
    slot_live = np.zeros((nsamp, cap), dtype=np.int64)
    slot_tag = np.zeros((nsamp, cap), dtype=np.int64)
    slot_pc = np.zeros((nsamp, cap), dtype=np.int64)
    slot_addr = np.zeros((nsamp, cap), dtype=np.int64)
    slot_pos = np.zeros((nsamp, cap), dtype=np.int64)
    slot_hits = np.zeros((nsamp, cap), dtype=np.int64)

    hit_flags = np.zeros(n, dtype=np.uint8)
    out = np.zeros(11, dtype=np.int64)
    # Room for a replacement at every access; pages never written are never
    # touched, so only the rows used take memory.
    ev_width = _EVENT_FIELDS + assoc
    events = np.empty(n * ev_width if record_events else 1, dtype=np.int64)

    _simulate(
        _column(addr), _column(pc),
        num_sets, assoc, geom.block_offset_bits, geom.set_bits,
        policy_id, _column(draws), 1 if aging else 0,
        -1 if ehc_fixed_init is None else int(ehc_fixed_init),
        SAMPLE_PERIOD,
        _table(valid), _table(tagv), _table(rrpv), _table(efh), _table(stamp),
        _table(lastpc), _table(sig), _table(outcome), _table(shct),
        _table(pc_tbl),
        _table(region_tag), _table(region_ring), _table(region_count),
        _table(region_head),
        _table(occ), _table(occ_base), _table(occ_len),
        _table(slot_live), _table(slot_tag), _table(slot_pc), _table(slot_addr),
        _table(slot_pos), _table(slot_hits),
        record_events, _column(events),
        _column(hit_flags), out,
    )

    stats = SimStats(
        accesses=int(out[0]),
        hits=int(out[1]),
        misses=int(out[2]),
        evictions=int(out[3]),
        replacements_total=int(out[4]),
        replacements_no_averse=int(out[5]),
    )
    if name == "brrip":
        stats.per_policy["long_inserts"] = int(out[6])
    elif name == "drrip":
        stats.per_policy["psel"] = int(out[7])
    elif name in ("hawkeye", "ehc"):
        stats.per_policy["optgen_cold"] = int(out[8])
        stats.per_policy["optgen_hit"] = int(out[9])
        stats.per_policy["optgen_miss"] = int(out[10])
    log = None
    if record_events:
        log = _event_log(trace, geom, events[:stats.evictions * ev_width].reshape(-1, ev_width))
    return stats, log, (hit_flags if record_hits else None)


def _event_log(trace: Trace, geom: CacheGeometry, rows: np.ndarray) -> EventLog:
    """The :class:`EventLog` of the kernel's event rows; the set and the
    incoming block follow from each row's trace position."""
    index = rows[:, 0]
    shift = np.uint64(geom.block_offset_bits)
    incoming = trace.addr[index] >> shift
    return EventLog(
        index,
        incoming & np.uint64(geom.num_sets - 1),
        rows[:, 1],
        rows[:, 2],
        incoming << shift,
        rows[:, _EVENT_FIELDS:].view(np.uint64) << shift,
    )
