"""Property test of the CLI's contract over every subcommand: whatever the
geometry flags (zero, negative, not a power of two, 2^63, 2^64, block bits
up to 70) or the ``gen`` (block counts and lengths up to 2^70) and
``interleave`` arguments, a command exits 0, 1, 2 or 3, a non-zero exit
writes exactly one ``ehcsim:`` line and no traceback, and the native kernel
and the reference engine give the same exit status, error line and output
files. A fault planted beneath either backend's result checks ends every
command that meets it in exit 3."""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehcsim import GeneratorSpec, Trace, _kernels, gen_synthetic, minoracle, runner, save_trace
from ehcsim.analysis import REPORT_KINDS
from ehcsim.cli import main
from ehcsim.runner import POLICY_NAMES
from ehcsim.traceformat import GENERATOR_KINDS

TOP = (1 << 64) - 1


def _top_trace():
    """Addresses near 2^64, which no interleaved core window holds."""
    n = 40
    addr = np.uint64(TOP) - np.uint64(64) * (np.arange(n, dtype=np.uint64) % np.uint64(5))
    return Trace(seq=np.arange(n, dtype=np.uint64), pc=np.full(n, TOP, dtype=np.uint64),
                 addr=addr, core=np.zeros(n, dtype=np.uint8), kind=np.zeros(n, dtype=np.uint8))


TRACES = {
    "mixed": gen_synthetic(GeneratorSpec("mixed", block_count=48, length=160, seed=3)),
    "one": gen_synthetic(GeneratorSpec("loop", block_count=1, length=1)),
    "top": _top_trace(),
}

# Powers of two the caches fit, drawn most often; the invalid; the too large.
FITTING = [1, 2, 4, 16]
SIZES = st.one_of(st.sampled_from(FITTING),
                  st.sampled_from([*FITTING, 0, -1, -4, 3, 12, 1 << 63, 1 << 64]))
BLOCK_BITS = st.one_of(st.integers(0, 70), st.sampled_from([-1, 1 << 63, 1 << 64]))
# ``gen`` block counts and lengths at and beyond their 2^58 bound.
GEN_SIZES = st.sampled_from([1 << 58, (1 << 58) + 1, 1 << 63, 1 << 64, 1 << 70])


@st.composite
def commands(draw):
    """An argv with placeholders for the files: ``{out}`` and ``{events}``
    for the outputs, a name of :data:`TRACES` or ``{missing}`` for inputs."""
    policy = st.sampled_from(POLICY_NAMES)
    kind = draw(st.sampled_from(["run", "run-events", "compare", "compare-events", "analyze",
                                 "gen", "interleave"]))
    if kind == "gen":
        return ["gen", "--kind", draw(st.sampled_from(GENERATOR_KINDS)),
                "--blocks", str(draw(st.one_of(st.integers(-2, 64), GEN_SIZES))),
                "--length", str(draw(st.one_of(st.integers(-2, 200), GEN_SIZES))),
                "--alpha", draw(st.sampled_from(["0", "0.8", "1.5", "-1", "nan", "inf"])),
                "--seed", str(draw(st.integers(-1, 3))), "-o", "{out}"]
    if kind == "interleave":
        inputs = draw(st.lists(st.sampled_from([*TRACES, "missing"]), min_size=1, max_size=3))
        return ["interleave", "-o", "{out}", *(f"{{{name}}}" for name in inputs)]
    if kind.startswith("run"):
        argv = ["run", "--policy", draw(policy)]
    elif kind.startswith("compare"):
        names = draw(st.lists(policy, min_size=1, max_size=3))
        argv = ["compare", "--policies", ",".join(names)]
    else:
        argv = ["analyze", "--report", draw(st.sampled_from(REPORT_KINDS)),
                "--policy", draw(policy)]
    if kind == "run-events":
        argv += ["--events", "{events}"]
    elif kind == "compare-events":
        argv.append("--events")
    return argv + ["--trace", f"{{{draw(st.sampled_from(list(TRACES)))}}}",
                   "--sets", str(draw(SIZES)), "--ways", str(draw(SIZES)),
                   "--block-bits", str(draw(BLOCK_BITS)), "--csv", "{out}"]


def _cli(argv, files):
    """``(exit status, stderr lines, output files' bytes)`` of one command;
    the output files are removed afterwards."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([arg.format(**files) for arg in argv])
    written = {}
    for name in ("out", "events"):
        path = Path(files[name])
        if path.exists():
            written[name] = path.read_bytes()
            path.unlink()
    text = err.getvalue()
    assert "Traceback" not in text, text
    # Once per call the reference engine also says why it runs.
    lines = [line for line in text.splitlines() if "native kernel unavailable" not in line]
    return code, lines, written


@settings(max_examples=100, deadline=None, derandomize=True)
@given(commands())
def test_every_command_keeps_the_exit_contract_on_both_backends(argv):
    assert _kernels.unavailable() is None, _kernels.unavailable()
    with tempfile.TemporaryDirectory() as tmp:
        files = {"out": f"{tmp}/out", "events": f"{tmp}/events", "missing": f"{tmp}/missing"}
        for name, trace in TRACES.items():
            files[name] = f"{tmp}/{name}.trace"
            save_trace(trace, files[name])
        kernel = _cli(argv, files)
        with mock.patch.object(_kernels, "_native", lambda: (None, "disabled")):
            reference = _cli(argv, files)
    assert kernel == reference, argv
    code, err, written = kernel
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        assert err == [] and "out" in written, argv
    else:
        assert len(err) == 1 and err[0].startswith("ehcsim: "), (argv, err)


#: Counters that a planted fault raises by one, breaking a check of every
#: run: one hit too many breaks ``accesses == hits + misses``; one access
#: and one miss too many break ``accesses == len(trace)`` alone.
COUNTER_FAULTS = {"hits": ("hits",), "accesses": ("accesses", "misses")}
RUNS = [["run", "--policy", "ehc"], ["run", "--policy", "lru", "--events", "{events}"],
        ["compare", "--policies", "srrip,hawkeye"]]
RANKED = [["compare", "--policies", "srrip,hawkeye", "--events"],
          ["analyze", "--report", "victim-quality", "--policy", "hawkeye"]]
REPORTS = [["analyze", "--report", kind] for kind in REPORT_KINDS]
#: The commands that meet each fault planted beneath only some runs.
FAULT_COMMANDS = {
    "ranks": RANKED,
    "rows": [["analyze", "--report", kind] for kind in ("hitcount-block", "hitcount-region")],
    "min-misses": [["analyze", "--report", "min-gap"]],
}


def _plant(monkeypatch, backend, fault):
    """Plant ``fault`` beneath the checks of ``backend``: a key of
    :data:`COUNTER_FAULTS` in the counters of every run; ``"ranks"``, one
    victim rank too many in every ranked run; ``"rows"``, one hit too many
    in MIN's residency rows; or ``"min-misses"``, every access of a MIN
    run counted a miss, so MIN misses more than the policy."""
    if backend == "reference":
        monkeypatch.setattr(_kernels, "_native", lambda: (None, "disabled"))
        if fault == "ranks":
            def faulty(*args, real=minoracle._rank_histogram):
                hist = real(*args)
                hist[0] += 1
                return hist

            monkeypatch.setattr(minoracle, "_rank_histogram", faulty)
            return
        if fault == "rows":
            def faulty(*args, real=minoracle._write_rows):
                count, hits = real(*args)
                return count, hits + 1

            monkeypatch.setattr(minoracle, "_write_rows", faulty)
            return

        def faulty(*args, real=runner.simulate, **kwargs):
            stats, events, hit = real(*args, **kwargs)
            if fault == "min-misses":
                if args[1].name == "min":
                    stats.misses, stats.hits = stats.accesses, 0
                return stats, events, hit
            for counter in COUNTER_FAULTS[fault]:
                setattr(stats, counter, getattr(stats, counter) + 1)
            return stats, events, hit

        monkeypatch.setattr(runner, "simulate", faulty)
        return
    lib = _kernels._native()[0]

    def faulty(*args, real=lib.ehcsim_simulate):
        status = real(*args)
        # (..., policy_id, seed, next_use, bypass, rows, ranks, events, hit_flags, out)
        policy_id, ranks, out = args[6], args[11], args[-1]
        if fault == "ranks" and ranks is not None:
            ranks[0] += 1
        if fault == "rows":
            out[_kernels._COUNTERS.index("row_hits")] += 1
        if fault == "min-misses" and policy_id == _kernels._POLICY_IDS["min"]:
            out[_kernels._COUNTERS.index("misses")] = out[_kernels._COUNTERS.index("accesses")]
            out[_kernels._COUNTERS.index("hits")] = 0
        for counter in COUNTER_FAULTS.get(fault, ()):
            out[_kernels._COUNTERS.index(counter)] += 1
        return status

    monkeypatch.setattr(lib, "ehcsim_simulate", faulty)


@pytest.mark.parametrize("backend", ["kernel", "reference"])
@pytest.mark.parametrize("fault", [*COUNTER_FAULTS, *FAULT_COMMANDS])
def test_a_fault_beneath_the_result_checks_exits_3_and_writes_nothing(
        backend, fault, monkeypatch, tmp_path):
    assert _kernels.unavailable() is None, _kernels.unavailable()
    commands = FAULT_COMMANDS.get(fault, RUNS + RANKED + REPORTS)
    files = {"out": f"{tmp_path}/out", "events": f"{tmp_path}/events",
             "mixed": f"{tmp_path}/mixed.trace"}
    save_trace(TRACES["mixed"], files["mixed"])
    shape = ["--trace", "{mixed}", "--sets", "4", "--ways", "2", "--csv", "{out}"]
    assert all(_cli(argv + shape, files)[0] == 0 for argv in commands)
    _plant(monkeypatch, backend, fault)
    for argv in commands:
        code, err, written = _cli(argv + shape, files)
        assert code == 3, (argv, err)
        assert len(err) == 1 and err[0].startswith("ehcsim: internal invariant violated: "), err
        assert written == {}, argv
