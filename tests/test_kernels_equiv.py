"""The fused kernels must reproduce the reference engine bit for bit."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ehcsim import CacheGeometry, EventLog, GeneratorSpec, gen_synthetic, simulate
from ehcsim import _kernels
from ehcsim.engine import DEFAULT_GEOMETRY
from ehcsim.errors import UsageError
from ehcsim.runner import POLICY_NAMES, make_policy, run_policy

from conftest import make_trace, random_trace

TRACES = {
    "zipf": GeneratorSpec("zipf", block_count=400, length=2500, seed=3),
    "region": GeneratorSpec("region", block_count=1024, length=2500, seed=4),
    "mixed": GeneratorSpec("mixed", block_count=512, length=2500, seed=2),
}


def _assert_same_run(trace, name, geom, **kw):
    columns = [c.copy() for c in (trace.seq, trace.pc, trace.addr, trace.core, trace.kind)]
    k_stats, k_none, k_flags = run_policy(
        trace, name, geom, backend="kernel", record_hits=True, **kw
    )
    assert k_none is None
    assert isinstance(k_flags, np.ndarray)
    assert k_flags.dtype == np.uint8 and k_flags.shape == (len(trace),)
    # Recording events must not change the run.
    e_stats, k_log, e_flags = run_policy(
        trace, name, geom, backend="kernel", record_hits=True, record_events=True, **kw
    )
    for before, after in zip(columns, (trace.seq, trace.pc, trace.addr,
                                       trace.core, trace.kind)):
        assert np.array_equal(before, after)
    policy = make_policy(name, geom, seed=kw.get("seed", 42),
                         ehc_fixed_init=kw.get("ehc_fixed_init"),
                         aging=kw.get("aging", True))
    r_stats, r_log, r_flags = simulate(trace, policy, geom, record_hits=True,
                                       record_events=True, check=True)
    assert k_stats == e_stats == r_stats
    assert k_flags.tolist() == e_flags.tolist() == r_flags.tolist()
    assert isinstance(k_log, EventLog) and isinstance(r_log, EventLog)
    assert len(k_log) == r_stats.replacements_total
    assert list(k_log) == list(r_log)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("workload", sorted(TRACES))
def test_kernel_matches_reference(policy, workload):
    trace = gen_synthetic(TRACES[workload])
    _assert_same_run(trace, policy, CacheGeometry(64, 4))


@pytest.mark.parametrize("policy", ["drrip", "ship", "ehc"])
def test_kernel_matches_reference_wide(policy):
    trace = gen_synthetic(TRACES["mixed"])
    _assert_same_run(trace, policy, CacheGeometry(256, 8))


def test_kernel_random_traces(rng):
    geom = CacheGeometry(4, 2)
    for _ in range(10):
        trace = random_trace(rng, length=int(rng.integers(50, 300)),
                             num_blocks=int(rng.integers(2, 30)))
        for policy in POLICY_NAMES:
            _assert_same_run(trace, policy, geom)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_kernel_matches_reference_default_geometry(policy, rng):
    # 2048 x 16 with 40 tags in each of the sampled sets 0 and 64, the DRRIP
    # leader sets 0 and 33, and set 2047, so every set fills and evicts.
    geom = DEFAULT_GEOMETRY
    sets = rng.choice([0, 33, 64, 2047], size=3000)
    tags = rng.integers(0, 40, size=3000)
    pcs = rng.integers(0, 6, size=3000) * 4 + 0x400000
    trace = make_trace([(int(p), geom.block_addr(int(s), int(t)))
                        for p, s, t in zip(pcs, sets, tags)])
    _assert_same_run(trace, policy, geom)


def test_kernel_matches_reference_near_int64_limit(rng):
    # The largest addresses and PCs the kernel accepts: every PC hash and
    # region id folds many bits, and set/tag math runs near 2**62.
    geom = CacheGeometry(4, 2)
    top = _kernels._INT64_LIMIT
    blocks = rng.integers(1, 40, size=400)
    pcs = rng.integers(1, 5, size=400)
    trace = make_trace([(top - 4 * int(p), top - 64 * int(b) + 7)
                        for p, b in zip(pcs, blocks)])
    assert _kernels.supports(trace, "lru")
    for policy in POLICY_NAMES:
        _assert_same_run(trace, policy, geom)


def test_kernel_honors_ehc_options():
    trace = gen_synthetic(TRACES["region"])
    geom = CacheGeometry(64, 4)
    _assert_same_run(trace, "ehc", geom, ehc_fixed_init=3)
    _assert_same_run(trace, "ehc", geom, aging=False)
    _assert_same_run(trace, "hawkeye", geom, aging=False)


def test_kernel_seed_changes_brrip():
    trace = gen_synthetic(TRACES["zipf"])
    geom = CacheGeometry(64, 4)
    a, _, _ = run_policy(trace, "brrip", geom, seed=1, backend="kernel")
    b, _, _ = run_policy(trace, "brrip", geom, seed=2, backend="kernel")
    assert a.per_policy["long_inserts"] != b.per_policy["long_inserts"]


def test_supports_rejects_unknown_and_huge_addresses():
    trace = make_trace([0x40, 0x80])
    assert _kernels.supports(trace, "lru")
    assert not _kernels.supports(trace, "belady")
    huge = make_trace([1 << 63])
    assert not _kernels.supports(huge, "lru")
    # auto silently falls back to the reference engine
    stats, _, _ = run_policy(huge, "lru", CacheGeometry(2, 2))
    assert stats.misses == 1


def test_run_policy_rejects_unknown_backend():
    trace = make_trace([0x40, 0x80])
    with pytest.raises(UsageError, match="unknown backend 'kernal'"):
        run_policy(trace, "lru", CacheGeometry(2, 2), backend="kernal")


def test_empty_trace():
    trace = make_trace([])
    stats, _, _ = run_policy(trace, "ehc", CacheGeometry(2, 2), backend="kernel")
    assert stats.accesses == 0
    _, log, _ = run_policy(trace, "ehc", CacheGeometry(2, 2), backend="kernel",
                           record_events=True)
    assert len(log) == 0 and log.resident_addrs.shape == (0, 2)


def test_auto_records_events_on_the_kernel(monkeypatch):
    # auto runs event logging on the kernel; check=True and addresses the
    # kernel cannot take still go to the reference engine.
    calls = []
    real_run = _kernels.run

    def counted_run(*args, **kwargs):
        calls.append("kernel")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(_kernels, "run", counted_run)
    trace = gen_synthetic(TRACES["zipf"])
    geom = CacheGeometry(64, 4)
    _, log, _ = run_policy(trace, "ehc", geom, record_events=True)
    assert calls == ["kernel"] and len(log) > 0
    run_policy(trace, "ehc", geom, record_events=True, check=True)
    run_policy(trace, "ehc", geom, record_events=True, backend="reference")
    _, huge_log, _ = run_policy(make_trace([1 << 63, (1 << 63) + 64]), "lru",
                                CacheGeometry(1, 1), record_events=True)
    assert calls == ["kernel"]
    assert list(huge_log)[0].resident_addrs == (1 << 63,)


_CHILD = """
import json, sys
from ehcsim import CacheGeometry, GeneratorSpec, gen_synthetic
from ehcsim import _kernels
from ehcsim.runner import run_policy

assert not _kernels.JIT_ENABLED
trace = gen_synthetic(GeneratorSpec("mixed", block_count=512, length=1500, seed=2))
out = {}
for name in ("lru", "drrip", "ehc"):
    stats, log, flags = run_policy(
        trace, name, CacheGeometry(64, 4), backend="kernel", record_hits=True,
        record_events=True,
    )
    out[name] = [stats.hits, stats.misses, stats.replacements_no_averse,
                 sorted(stats.per_policy.items()), int(flags.sum()),
                 len(log), {c: getattr(log, c).tolist() for c in (
                     "index", "set_index", "victim_way", "no_averse",
                     "incoming_addr", "resident_addrs")}]
json.dump(out, sys.stdout)
"""


def test_interpreted_kernel_equivalence():
    env = dict(os.environ, EHCSIM_NUMBA="0")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    interpreted = json.loads(proc.stdout)

    trace = gen_synthetic(GeneratorSpec("mixed", block_count=512, length=1500, seed=2))
    geom = CacheGeometry(64, 4)
    for name, (hits, misses, no_averse, per_policy, flagsum, n_events,
               columns) in interpreted.items():
        stats, log, flags = run_policy(trace, name, geom, backend="kernel",
                                       record_hits=True, record_events=True)
        assert [stats.hits, stats.misses, stats.replacements_no_averse] == [
            hits, misses, no_averse
        ]
        assert [[k, v] for k, v in sorted(stats.per_policy.items())] == per_policy
        assert int(flags.sum()) == flagsum
        assert len(log) == n_events > 0
        assert len(columns) == 6
        assert {c: getattr(log, c).tolist() for c in columns} == columns
