"""Cache engine: geometry math, the simulate loop, events, invariants."""

import copy
import pickle

import numpy as np
import pytest

from ehcsim import (
    BYPASS,
    CacheGeometry,
    DEFAULT_GEOMETRY,
    GeneratorSpec,
    InternalInvariantError,
    InvalidSpec,
    LruPolicy,
    ReplacementPolicy,
    SimStats,
    simulate,
)
from ehcsim.errors import VictimOutOfRange

from conftest import make_trace


def test_default_geometry_is_2mb_16way():
    g = DEFAULT_GEOMETRY
    assert g.num_sets == 2048
    assert g.associativity == 16
    assert g.num_sets * g.associativity * 64 == 2 * 1024 * 1024


def test_set_index_example():
    # block number 0x1F40 >> 6 = 0x7D = 125
    assert DEFAULT_GEOMETRY.set_index(0x1F40) == 125
    assert DEFAULT_GEOMETRY.set_index(0) == 0


def test_addresses_differing_above_set_bits_share_set():
    g = DEFAULT_GEOMETRY
    a = 0x1F40
    b = a + (1 << (6 + 11))
    assert g.set_index(a) == g.set_index(b)
    assert g.tag(a) != g.tag(b)


def test_block_addr_round_trip():
    g = CacheGeometry(64, 4)
    addr = 0xDEAD40
    rebuilt = g.block_addr(g.set_index(addr), g.tag(addr))
    assert rebuilt == addr & ~63


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheGeometry(num_sets=3)
    with pytest.raises(ValueError):
        CacheGeometry(associativity=0)


# Per value type: a maker whose argument is the last field, and the default
# instance's fields as a tuple.
VALUE_TYPES = {
    "geometry": (lambda last=6: CacheGeometry(64, 4, last), (64, 4, 6)),
    "spec": (lambda last=42: GeneratorSpec("zipf", 100, 1000, 0.5, last),
             ("zipf", 100, 1000, 0.5, 42)),
}


@pytest.mark.parametrize("make, fields", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_types_are_immutable_values(make, fields):
    a, b, other = make(), make(), make(7)
    assert a == b and hash(a) == hash(b) and len({a, b, other}) == 2
    assert a != other and a != fields
    assert a != type("Subclass", (type(a),), {})(*fields)
    for restored in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert restored == a and type(restored) is type(a)
    for name in ("num_sets", "kind", "index", "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        del a.seed
    assert a == b


def test_value_type_reprs():
    assert repr(CacheGeometry()) == (
        "CacheGeometry(num_sets=2048, associativity=16, block_offset_bits=6)")
    assert repr(GeneratorSpec("loop", 3, 6)) == (
        "GeneratorSpec(kind='loop', block_count=3, length=6, alpha=1.0, seed=42)")
    assert repr(SimStats(hits=2, per_policy={"psel": 5})) == (
        "SimStats(accesses=0, hits=2, misses=0, replacements_total=0, "
        "replacements_no_averse=0, per_policy={'psel': 5})")


def test_value_types_validate_by_keyword_too():
    with pytest.raises(ValueError, match="block_offset_bits"):
        CacheGeometry(block_offset_bits=0)
    with pytest.raises(InvalidSpec, match="alpha"):
        GeneratorSpec(kind="zipf", block_count=1, length=1, alpha=-1.0)
    assert GeneratorSpec(kind="loop", block_count=2, length=3).seed == 42


def test_sim_stats_are_mutable_and_unhashable():
    a, b = SimStats(), SimStats()
    assert a == b and a.per_policy is not b.per_policy
    a.hits += 1
    a.per_policy["psel"] = 1
    assert a != b and a == SimStats(hits=1, per_policy={"psel": 1})
    with pytest.raises(TypeError):
        hash(a)


def test_stream_has_no_hits():
    t = make_trace([i * 64 for i in range(100)])
    stats, _, _ = simulate(t, LruPolicy(DEFAULT_GEOMETRY))
    assert stats.hits == 0
    assert stats.misses == 100


def test_small_loop_fits():
    g = CacheGeometry(1, 2)
    t = make_trace([0x000, 0x040, 0x000, 0x040])
    stats, _, _ = simulate(t, LruPolicy(g), g)
    assert (stats.misses, stats.hits) == (2, 2)


def test_lru_thrash_on_loop3():
    g = CacheGeometry(1, 2)
    t = make_trace([0x000, 0x040, 0x080] * 2)
    stats, _, _ = simulate(t, LruPolicy(g), g, check=True)
    assert stats.hits == 0
    assert stats.misses == 6


def test_cold_fills_are_not_replacements():
    g = CacheGeometry(1, 2)
    t = make_trace([0x000, 0x040, 0x080])
    stats, events, _ = simulate(t, LruPolicy(g), g, record_events=True)
    assert stats.replacements_total == 1  # only the third access replaces
    assert len(events) == 1
    assert events.index.tolist() == [2]
    assert set(events.resident_pos[0].tolist()) == {0, 1}


def test_hit_flags():
    g = CacheGeometry(1, 2)
    t = make_trace([0x000, 0x040, 0x000, 0x080, 0x040])
    _, _, flags = simulate(t, LruPolicy(g), g)
    assert flags.tolist() == [0, 0, 1, 0, 0]


class _OutOfRangePolicy(ReplacementPolicy):
    def choose_victim(self, set_index, ways):
        return len(ways), False


def test_victim_out_of_range():
    g = CacheGeometry(1, 2)
    t = make_trace([0x000, 0x040, 0x080])
    with pytest.raises(VictimOutOfRange):
        simulate(t, _OutOfRangePolicy(), g)


class _AlwaysBypass(ReplacementPolicy):
    def choose_victim(self, set_index, ways):
        return BYPASS, False


def test_bypass_skips_insertion():
    g = CacheGeometry(1, 2)
    t = make_trace([0x000, 0x040, 0x080, 0x000, 0x040])
    stats, events, _ = simulate(t, _AlwaysBypass(), g, record_events=True)
    # 0x080 was never inserted, so the original pair still hits.
    assert stats.hits == 2
    assert stats.replacements_total == 0
    # The bypass is still logged, with the residents it left in place.
    assert events.index.tolist() == [2]
    assert events.victim_way.tolist() == [BYPASS]
    assert events.resident_pos.tolist() == [[0, 1]]


def test_sim_stats_check():
    s = SimStats(accesses=3, hits=1, misses=1)
    with pytest.raises(InternalInvariantError):
        s.check()
    s = SimStats(accesses=2, hits=1, misses=1, replacements_total=5)
    with pytest.raises(InternalInvariantError):
        s.check()


def test_one_valid_way_per_tag():
    g = CacheGeometry(2, 4)
    t = make_trace([(0x500, (i % 6) * 64) for i in range(200)])
    policy = LruPolicy(g)
    stats, _, _ = simulate(t, policy, g, check=True)
    assert stats.accesses == 200


class _RecordingPolicy(LruPolicy):
    """LRU that records the arguments of every hook call."""

    def __init__(self, geom):
        super().__init__(geom)
        self.observed, self.touched, self.victim_sets = [], [], []

    def on_observe(self, set_index, tag, addr, pc):
        self.observed.append((set_index, tag, addr, pc))

    def on_hit(self, set_index, ways, way, addr, pc):
        self.touched.append((set_index, addr, pc))

    def on_insert(self, set_index, ways, way, addr, pc):
        self.touched.append((set_index, addr, pc))

    def choose_victim(self, set_index, ways):
        self.victim_sets.append(set_index)
        return super().choose_victim(set_index, ways)


TOP = (1 << 64) - 1


@pytest.mark.parametrize("block_bits", [1, 6, 64, 70])
def test_hooks_receive_each_access_set_tag_addr_and_pc(block_bits):
    # The engine shifts numpy columns; every value must equal the
    # geometry's Python-int arithmetic, up to the last address and PC.
    geom = CacheGeometry(4, 2, block_bits)
    rng = np.random.default_rng(block_bits)
    addrs = [TOP, TOP - 1, 0, 1 << 63, (1 << 63) - 1, TOP, 0x40, 0x80,
             *(int(a) for a in rng.integers(0, TOP, size=40, dtype=np.uint64, endpoint=True))]
    pcs = [TOP, 0, 1 << 63, *(int(p) for p in rng.integers(0, TOP, size=len(addrs) - 3,
                                                            dtype=np.uint64, endpoint=True))]
    trace = make_trace(list(zip(pcs, addrs)))
    policy = _RecordingPolicy(geom)
    _, _, flags = simulate(trace, policy, geom, check=True)

    assert policy.observed == [(geom.set_index(a), geom.tag(a), a, p)
                               for a, p in zip(addrs, pcs)]
    # One hit or insert per access (LRU never bypasses), and a victim
    # choice at each miss in a full set: LRU inserts on every miss, so a
    # set is full from its ways-th miss on.
    assert policy.touched == [(geom.set_index(a), a, p) for a, p in zip(addrs, pcs)]
    misses_in = {}
    full_set_misses = []
    for a, hit in zip(addrs, flags.tolist()):
        if not hit:
            s = geom.set_index(a)
            if misses_in.get(s, 0) >= geom.associativity:
                full_set_misses.append(s)
            misses_in[s] = misses_in.get(s, 0) + 1
    assert policy.victim_sets == full_set_misses
    assert all(type(v) is int for row in policy.observed for v in row)
