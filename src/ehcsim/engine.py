"""Set-associative cache engine driven by a replacement-policy interface.

This is the reference execution path: a plain Python loop over the trace that
calls back into a policy object for every decision. It favors clarity and
extensibility: any :class:`ReplacementPolicy` subclass plugs in, Belady's MIN
(:class:`ehcsim.minoracle.MinPolicy`) included, and it can record every
replacement decision as an :class:`EventLog`, a view of the rows it writes
in the kernel's layout. A set is the list of its filled lines, each a
:class:`BlockState` built when it is filled. The native kernel in
:mod:`ehcsim._kernels` reproduces the built-in policies and MIN bit for
bit for bulk runs; equivalence is enforced by tests. The types it shares
with the kernel path (:class:`CacheGeometry` and :class:`SimStats` from
:mod:`ehcsim.values`, :class:`EventLog` from :mod:`ehcsim._kernels`) live
where a kernel run imports them instead of this module; they are
re-exported here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from ._kernels import EventLog, event_rows
from .errors import InternalInvariantError, VictimOutOfRange
from .params import BYPASS, EFH_MAX, RRPV_MAX
from .values import DEFAULT_GEOMETRY, CacheGeometry, Record, SimStats  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from .trace import Trace


class BlockState:
    """One filled line. The engine writes ``tag`` and ``recency_stamp``, the
    trace position of the block's latest access; the policies own the rest:
    the 3-bit ``rrpv`` and ``efh``, ``last_pc`` (Hawkeye's and EHC's latest
    PC, SHiP's filling PC) and SHiP's ``outcome``. The kernel derives the
    last two from trace positions; the hooks see no trace columns."""

    __slots__ = ("tag", "rrpv", "efh", "recency_stamp", "last_pc", "outcome")

    def __init__(self):
        self.tag = 0
        self.rrpv = 0
        self.efh = 0
        self.recency_stamp = 0
        self.last_pc = 0
        self.outcome = 0


class ReplacementPolicy:
    """Behavioral contract the engine drives.

    The engine computes every access's set index and tag once, from the
    trace's columns, and hands each hook only what the built-in policies
    read: ``on_observe`` gets the set index, tag, byte address and PC of
    every access; ``on_hit`` and ``on_insert`` get the set's filled lines,
    one :class:`BlockState` per block filled in the set so far and never
    more than the associativity, the way touched and the access's address
    and PC; ``choose_victim`` gets the set alone, and only when it is full.
    It returns ``(way, no_averse)`` where ``way`` may be
    :data:`BYPASS`; ``no_averse`` reports that no cache-averse candidate
    existed at decision time (meaningful for the Belady-inspired policies,
    always False elsewhere).
    """

    name = "abstract"

    def on_observe(self, set_index: int, tag: int, addr: int, pc: int) -> None:
        """Called for every access before lookup; samplers train here."""

    def on_hit(self, set_index: int, ways, way: int, addr: int, pc: int) -> None:
        pass

    def choose_victim(self, set_index: int, ways):
        raise NotImplementedError

    def on_insert(self, set_index: int, ways, way: int, addr: int, pc: int) -> None:
        pass

    def extra_stats(self) -> dict:
        """Policy-specific counters merged into ``SimStats.per_policy``."""
        return {}


def simulate(
    trace: Trace,
    policy: ReplacementPolicy,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    record_events: bool = False,
    check: bool = False,
):
    """Run ``trace`` through the cache with ``policy`` deciding replacements.

    Returns ``(stats, events, hit_flags)``; ``events`` is an
    :class:`EventLog` when ``record_events`` and None otherwise, and
    ``hit_flags`` is a uint8 array holding 1 at every hit. Events that no
    memory holds raise :func:`ehcsim._kernels.event_rows`' error at once.
    ``check=True`` validates stats and counter-range invariants after every
    access (slow; meant for tests).
    """
    import numpy as np

    assoc = geom.associativity
    sets = defaultdict(list)  # the filled lines of each set
    stats = SimStats()
    table = event_rows(trace, geom) if record_events else None
    count = 0  # events recorded
    hit_flags = bytearray(len(trace))

    # Set index and tag of every access, shifted as compute_next_use does;
    # plain lists iterate as Python ints without per-element numpy scalars.
    blocks = trace.addr >> np.uint64(geom.block_shift)
    set_col = (blocks & np.uint64(geom.num_sets - 1)).tolist()
    tag_col = (blocks >> np.uint64(geom.set_bits)).tolist()
    columns = zip(set_col, tag_col, trace.addr.tolist(), trace.pc.tolist())
    # A policy that keeps no state on a hit (LRU, MIN) is not called there.
    on_hit = policy.on_hit
    if getattr(on_hit, "__func__", None) is ReplacementPolicy.on_hit:
        on_hit = None
    for i, (si, tag, addr, pc) in enumerate(columns):
        policy.on_observe(si, tag, addr, pc)
        ways = sets[si]
        stats.accesses += 1
        for way, blk in enumerate(ways):
            if blk.tag == tag:
                stats.hits += 1
                blk.recency_stamp = i
                if on_hit is not None:
                    on_hit(si, ways, way, addr, pc)
                hit_flags[i] = 1
                break
        else:
            stats.misses += 1
            if len(ways) < assoc:
                way = len(ways)
                ways.append(BlockState())
            else:
                way, no_averse = policy.choose_victim(si, ways)
                if way != BYPASS and not 0 <= way < assoc:
                    raise VictimOutOfRange(f"policy returned way {way} of {assoc}")
                if table is not None:  # a row in the order of _kernels._EVENT_FIELDS
                    table[count] = (i, way, no_averse, *(blk.recency_stamp for blk in ways))
                    count += 1
                if way == BYPASS:
                    if check:
                        stats.check()
                    continue
                stats.replacements_total += 1
                if no_averse:
                    stats.replacements_no_averse += 1
            blk = ways[way]
            blk.tag = tag
            blk.recency_stamp = i
            policy.on_insert(si, ways, way, addr, pc)

        if check:
            stats.check()
            for w, b in enumerate(ways):
                if not (0 <= b.rrpv <= RRPV_MAX and 0 <= b.efh <= EFH_MAX):
                    raise InternalInvariantError(
                        f"counter out of range in set {si} way {w}"
                    )

    stats.per_policy.update(policy.extra_stats())
    events = None if table is None else EventLog(table[:count])
    return stats, events, np.frombuffer(hit_flags, dtype=np.uint8)
