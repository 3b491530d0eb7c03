"""Set-associative cache engine driven by a replacement-policy interface.

This is the reference execution path: a plain Python loop over the trace that
calls back into a policy object for every decision. It favors clarity and
extensibility: any :class:`ReplacementPolicy` subclass plugs in, Belady's MIN
(:class:`ehcsim.minoracle.MinPolicy`) included, and it can record every
replacement decision as an :class:`EventLog`. A set is the list of its
filled lines, each a :class:`BlockState` built when it is filled. The
native kernel in :mod:`ehcsim._kernels` reproduces the built-in policies
and MIN bit for bit for bulk runs; equivalence is enforced by tests.
The value types it shares with the kernel path (:class:`CacheGeometry`,
:class:`SimStats`) live in :mod:`ehcsim.values`, which a kernel run
imports instead of this module; they are re-exported here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from . import _kernels
from .errors import InternalInvariantError, VictimOutOfRange
from .params import BYPASS, EFH_MAX, RRPV_MAX
from .values import DEFAULT_GEOMETRY, CacheGeometry, Record, SimStats  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from ._kernels import Columns
    from .trace import Trace


class BlockState:
    """One filled line. The engine writes ``tag`` and ``recency_stamp``, the
    trace position of the block's latest access; the policies own the rest:
    the 3-bit ``rrpv`` and ``efh``, ``last_pc``, ``signature`` and ``outcome``."""

    __slots__ = ("tag", "rrpv", "efh", "recency_stamp", "last_pc", "signature", "outcome")

    def __init__(self):
        self.tag = 0
        self.rrpv = 0
        self.efh = 0
        self.recency_stamp = 0
        self.last_pc = 0
        self.signature = 0
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


class EventLog:
    """Replacement decisions as columns, one row per full-set miss, bypasses
    included, in trace positions of the trace they were recorded on.

    ``index`` (int64) is the position of the missing access, ``victim_way``
    (int64) the way it replaced or :data:`BYPASS`, ``no_averse`` (bool) as
    ``choose_victim`` reported it, and ``resident_pos`` (int64, shape
    ``(len, associativity)``) the position of the latest access to every
    way's resident before the fill. A set, an address or a next use is a
    gather from the trace at these positions. Both loops write one row
    per event, which :func:`ehcsim._kernels.event_log` makes these columns.
    """

    __slots__ = ("index", "victim_way", "no_averse", "resident_pos")

    def __init__(self, index, victim_way, no_averse, resident_pos):
        import numpy as np

        self.index = np.ascontiguousarray(index, dtype=np.int64)
        self.victim_way = np.ascontiguousarray(victim_way, dtype=np.int64)
        self.no_averse = np.ascontiguousarray(no_averse, dtype=bool)
        self.resident_pos = np.ascontiguousarray(resident_pos, dtype=np.int64)
        n = len(self.index)
        if not len(self.victim_way) == len(self.no_averse) == n:
            raise ValueError("event log columns must have equal length")
        if self.resident_pos.ndim != 2 or len(self.resident_pos) != n:
            raise ValueError("resident_pos must have one row per event")

    def __len__(self) -> int:
        return len(self.index)

    def write_csv(self, path, trace: Trace | Columns, geom: CacheGeometry) -> None:
        """One CSV row per event: its position and set, the victim way, the
        no-averse flag, and the block-aligned addresses of the incoming
        block and of every resident, gathered from the address column of
        ``trace``, a :class:`~ehcsim.trace.Trace` or the kernel's
        :class:`~ehcsim._kernels.Columns`, at the logged positions."""
        import csv

        import numpy as np

        shift = np.uint64(geom.block_shift)
        blocks = np.frombuffer(trace.addr, dtype=np.uint64) >> shift
        aligned = blocks << shift
        columns = (
            self.index, (blocks & np.uint64(geom.num_sets - 1))[self.index],
            self.victim_way, self.no_averse, aligned[self.index], aligned[self.resident_pos],
        )
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["index", "set", "victim_way", "no_averse", "incoming"]
                + [f"resident_{w}" for w in range(geom.associativity)]
            )
            rows = zip(*(column.tolist() for column in columns))
            for index, si, way, no_averse, incoming, residents in rows:
                writer.writerow(
                    [index, si, "bypass" if way == BYPASS else way, int(no_averse),
                     f"0x{incoming:x}"]
                    + [f"0x{a:x}" for a in residents]
                )


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
    # Event rows in the kernel's layout, written at ``at`` through a view.
    rows = _kernels.event_rows(trace, geom).data if record_events else None
    at = 0
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
                if rows is not None:
                    rows[at], rows[at + 1], rows[at + 2] = i, way, no_averse
                    for w, blk in enumerate(ways, at + 3):
                        rows[w] = blk.recency_stamp
                    at += 3 + assoc
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
    events = None if rows is None else _kernels.event_log(rows.obj, at // (3 + assoc), geom)
    return stats, events, np.frombuffer(hit_flags, dtype=np.uint8)
