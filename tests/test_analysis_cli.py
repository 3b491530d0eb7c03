"""Metrics, report CSV round trips, experiment drivers, and the CLI."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehcsim import (
    CacheGeometry,
    GeneratorSpec,
    Report,
    SimStats,
    UsageError,
    ZeroInstructions,
    analyze,
    compare,
    gen_synthetic,
    load_trace,
    mpki,
    mpki_reduction,
    no_averse_fraction,
    run_report,
    save_trace,
)
from ehcsim import _kernels, analysis, cli, minoracle, runner
from ehcsim.analysis import REPORT_KINDS
from ehcsim.cli import main
from ehcsim.errors import DataError

from conftest import lru_oracle_hits, make_trace

GEOM = CacheGeometry(64, 4)


def _loop_trace():
    return gen_synthetic(GeneratorSpec("loop", block_count=300, length=3000, seed=5))


def test_mpki():
    assert mpki(SimStats(misses=1500), 1_000_000) == 1.5
    assert mpki(SimStats(misses=0), 1000) == 0.0
    with pytest.raises(ZeroInstructions):
        mpki(SimStats(misses=5), 0)


def test_mpki_reduction():
    assert mpki_reduction(1.5, 2.0) == 0.25
    assert mpki_reduction(2.0, 2.0) == 0.0
    assert mpki_reduction(3.0, 0.0) == 0.0


def test_no_averse_fraction():
    assert no_averse_fraction(SimStats()) == 0.0
    s = SimStats(replacements_total=12, replacements_no_averse=3)
    assert no_averse_fraction(s) == 0.25


def test_report_round_trip():
    report = Report({"seed": 7, "sets": 64})
    report.add_table("alpha", ["x", "y"], [("a", 1, 2.5), ("b", 0.123456789, 3)])
    report.add_table("beta", ["n"], [("only", 42)])
    parsed = Report.parse(report.to_csv())
    assert parsed.meta == {"seed": "7", "sets": "64"}
    assert list(parsed.tables) == ["alpha", "beta"]
    cols, rows = parsed.tables["alpha"]
    assert cols == ["x", "y"]
    assert rows[0] == ("a", 1.0, 2.5)
    assert rows[1][1] == pytest.approx(0.123456789, rel=1e-5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.integers(-(2**63 - 1), 2**63 - 1),
                          st.integers(-(2**63 - 1), 2**63 - 1).map(np.int64),
                          st.integers(0, 2**63 - 1).map(np.uint64),
                          st.floats(allow_nan=False), st.booleans()),
                min_size=1, max_size=6))
def test_report_round_trip_gives_integers_exactly_and_floats_to_six_digits(cells):
    report = Report()
    report.add_table("t", [f"c{k}" for k in range(len(cells))], [("row", *cells)])
    [(label, *got)] = Report.parse(report.to_csv()).tables["t"][1]
    assert label == "row" and len(got) == len(cells)
    for want, cell in zip(cells, got):
        if isinstance(want, float):
            assert cell == float("%.6g" % want), (want, cell)
        else:
            assert type(cell) is int and cell == int(want), (want, cell)


def test_report_rejects_ragged_rows():
    report = Report()
    with pytest.raises(ValueError):
        report.add_table("t", ["x"], [("a", 1, 2)])


def test_report_parse_rejects_stray_data():
    # Data before any table, a table cut right after its marker, a cell
    # that is not a number and a row wider than its header.
    for text in ("a,1,2\n", "# seed=42\n# table=run\n", "# table=run\nlabel,hits\nlru,many\n",
                 "# table=run\nlabel,hits\nlru,1,2\n"):
        with pytest.raises(DataError):
            Report.parse(text)


def test_run_report_includes_policy_counters():
    trace = _loop_trace()
    report, stats, _ = run_report(trace, "brrip", GEOM)
    assert "counters" in report.tables
    labels = [row[0] for row in report.tables["counters"][1]]
    assert "long_inserts" in labels
    _, rows = report.tables["run"]
    assert rows[0][0] == "brrip"
    assert rows[0][1] == stats.accesses


def test_compare_inserts_lru_baseline():
    trace = _loop_trace()
    report = compare(trace, ["ehc"], GEOM)
    _, rows = report.tables["compare"]
    assert [r[0] for r in rows] == ["lru", "ehc"]
    lru_row = rows[0]
    assert lru_row[4] == 0.0  # reduction vs itself


def test_compare_stream_makes_policies_equal():
    trace = gen_synthetic(GeneratorSpec("stream", block_count=2000, length=2000, seed=1))
    report = compare(trace, ["lru", "srrip", "ehc"], GEOM)
    _, rows = report.tables["compare"]
    misses = {row[0]: row[2] for row in rows}
    assert misses["lru"] == misses["srrip"] == misses["ehc"] == 2000


def test_compare_with_events_scores_victims():
    trace = _loop_trace()
    report = compare(trace, ["lru"], GEOM, events=True)
    cols, rows = report.tables["compare"]
    assert cols[-1] == "mean_victim_rank"
    assert all(0.0 <= row[-1] <= GEOM.associativity for row in rows)


def test_analyze_no_averse():
    report = analyze(_loop_trace(), "no-averse", policy="ehc", geom=GEOM)
    _, rows = report.tables["no_averse"]
    label, total, no_averse, fraction = rows[0]
    assert label == "ehc"
    assert 0 <= no_averse <= total
    assert 0.0 <= fraction <= 1.0


@pytest.mark.parametrize("kind", ["hitcount-block", "hitcount-region"])
def test_analyze_hitcount_histograms(kind):
    # zipf reuse forces repeated residencies per block under MIN (a pure
    # loop would pin the residents and leave nothing to predict)
    trace = gen_synthetic(GeneratorSpec("zipf", block_count=600, length=4000, seed=5))
    report = analyze(trace, kind, geom=GEOM)
    _, rows = report.tables["prediction_error"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4+"]
    assert sum(r[1] for r in rows) > 0
    fractions = [r[2] for r in rows]
    assert sum(fractions) == pytest.approx(1.0)


def test_analyze_victim_quality():
    report = analyze(_loop_trace(), "victim-quality", policy="lru", geom=GEOM)
    _, rows = report.tables["victim_rank"]
    assert len(rows) == GEOM.associativity + 1
    _, summary = report.tables["summary"]
    assert summary[0][0] == "lru"


def test_analyze_min_gap():
    report = analyze(_loop_trace(), "min-gap", policy="srrip", geom=GEOM)
    _, rows = report.tables["min_gap"]
    assert [r[0] for r in rows] == ["srrip", "min-nobypass", "min-bypass"]
    by_label = {r[0]: r for r in rows}
    assert by_label["min-bypass"][1] >= by_label["min-nobypass"][1]  # hits
    assert by_label["min-nobypass"][1] >= 0


def test_analyze_unknown_kind():
    for policy in ("ehc", "bogus"):  # the kind is checked before the policy
        with pytest.raises(UsageError, match="^unknown report kind 'nonsense'$"):
            analyze(_loop_trace(), "nonsense", policy=policy)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "loop.trace"
    save_trace(_loop_trace(), path)
    return path


def test_cli_gen_run(tmp_path):
    trace = tmp_path / "t.trace"
    out = tmp_path / "run.csv"
    assert main(["gen", "--kind", "zipf", "--blocks", "500", "--length", "2000",
                 "--seed", "9", "-o", str(trace)]) == 0
    assert main(["run", "--trace", str(trace), "--policy", "ehc",
                 "--sets", "64", "--ways", "4", "--csv", str(out)]) == 0
    report = Report.parse(out.read_text())
    assert report.meta["policy"] == "ehc"
    assert "run" in report.tables


def test_cli_gen_run_single_access(tmp_path):
    # A generated trace counts one instruction per access, so even a
    # one-access trace has a defined MPKI.
    trace = tmp_path / "one.trace"
    out = tmp_path / "run.csv"
    assert main(["gen", "--kind", "loop", "--blocks", "1", "--length", "1",
                 "-o", str(trace)]) == 0
    assert load_trace(trace).instruction_count == 1
    assert main(["run", "--trace", str(trace), "--policy", "lru",
                 "--csv", str(out)]) == 0


def test_cli_run_writes_events(trace_file, tmp_path, monkeypatch):
    out = tmp_path / "run.csv"
    events = tmp_path / "events.csv"
    assert main(["run", "--trace", str(trace_file), "--policy", "lru",
                 "--sets", "64", "--ways", "4",
                 "--events", str(events), "--csv", str(out)]) == 0
    lines = events.read_text().splitlines()
    assert lines[0].startswith("index,set,victim_way,no_averse,incoming")
    assert len(lines) > 1
    # Sets and addresses are the trace's at the logged positions.
    trace = load_trace(trace_file)
    for row in csv.reader(lines[1:]):
        addr = int(trace.addr[int(row[0])])
        assert int(row[1]) == GEOM.set_index(addr) and int(row[4], 16) == addr & ~63
        residents = [int(a, 16) for a in row[5:]]
        assert {GEOM.set_index(a) for a in residents} == {int(row[1])}
        assert len(set(residents)) == 4 and int(row[4], 16) not in residents
    # The reference engine writes the same file.
    monkeypatch.setattr(_kernels, "_native", lambda: (None, "disabled"))
    reference = tmp_path / "reference.csv"
    assert main(["run", "--trace", str(trace_file), "--policy", "lru",
                 "--sets", "64", "--ways", "4",
                 "--events", str(reference), "--csv", str(out)]) == 0
    assert reference.read_text() == events.read_text()


#: Each command that simulates, by a short name.
COMMANDS = {
    "run": ["run", "--policy", "ehc"],
    "run-events": ["run", "--policy", "hawkeye", "--events", "{events}"],
    "compare": ["compare", "--policies", "srrip,ehc"],
    "compare-events": ["compare", "--policies", "srrip,ehc", "--events"],
    **{kind: ["analyze", "--report", kind] for kind in REPORT_KINDS},
}


@pytest.mark.parametrize("backend", ["kernel", "reference"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_block_offset_of_64_bits_or_more_is_64(trace_file, tmp_path, monkeypatch,
                                                   backend, command):
    # Every address is in block 0 either way; only the provenance line differs.
    if backend == "reference":
        monkeypatch.setattr(_kernels, "_native", lambda: (None, "disabled"))
    outputs = []
    for bits in (64, 1 << 64):
        out, events = tmp_path / f"{bits}.csv", tmp_path / f"{bits}-events.csv"
        argv = [arg.format(events=events) for arg in COMMANDS[command]]
        assert main([*argv, "--trace", str(trace_file), "--sets", "4", "--ways", "2",
                     "--block-bits", str(bits), "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert f"# block_bits={bits}" in lines
        outputs.append(([line for line in lines if not line.startswith("# block_bits=")],
                        events.read_text() if events.exists() else None))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("backend", ["kernel", "reference"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_command_picks_one_backend_and_at_most_one_next_use(trace_file, tmp_path,
                                                                monkeypatch, backend, command):
    # All of a command's runs go to one backend, and MIN and the ranked runs
    # share one next-use column, made only when one of them reads it.
    if backend == "reference":
        monkeypatch.setattr(_kernels, "_native", lambda: (None, "disabled"))
    calls = []
    for owner, name in ((runner, "pick_backend"), (analysis, "pick_backend"),
                        (_kernels, "next_use"), (minoracle, "next_use")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, original=original, **kw:
                            calls.append(name) or original(*args, **kw))
    argv = [arg.format(events=tmp_path / "events.csv") for arg in COMMANDS[command]]
    assert main([*argv, "--trace", str(trace_file), "--sets", "64", "--ways", "4",
                 "--csv", str(tmp_path / "out.csv")]) == 0
    unranked = ("run", "run-events", "compare", "no-averse")
    assert calls.count("pick_backend") == 1
    assert calls.count("next_use") == (command not in unranked)


def test_cli_compare(trace_file, tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--trace", str(trace_file),
                 "--policies", "srrip,ehc", "--sets", "64", "--ways", "4",
                 "--csv", str(out)]) == 0
    report = Report.parse(out.read_text())
    _, rows = report.tables["compare"]
    assert [r[0] for r in rows] == ["lru", "srrip", "ehc"]


@pytest.mark.parametrize("events", [[], ["--events"]])
@pytest.mark.parametrize("policies, message", [
    ("ehc,nope", "unknown policy 'nope' (choose from lru, srrip,"),
    ("ehc,min", "unknown policy 'min' (choose from lru, srrip,"),
    ("ehc,ehc", "policy 'ehc' is named twice"),
])
def test_cli_compare_checks_every_policy_before_it_runs(trace_file, tmp_path, monkeypatch,
                                                        capsys, policies, message, events):
    assert _kernels.unavailable() is None, _kernels.unavailable()
    runs = []
    kernel_run = _kernels.run
    monkeypatch.setattr(_kernels, "run",
                        lambda *args, **kw: runs.append(args[1]) or kernel_run(*args, **kw))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--trace", str(trace_file), "--policies", policies, *events,
                 "--sets", "64", "--ways", "4", "--csv", str(out)]) == 1
    assert runs == [] and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ehcsim: {message}"), err


def test_cli_analyze(trace_file, tmp_path):
    out = tmp_path / "hist.csv"
    assert main(["analyze", "--trace", str(trace_file), "--report",
                 "hitcount-region", "--sets", "64", "--ways", "4",
                 "--csv", str(out)]) == 0
    assert "prediction_error" in Report.parse(out.read_text()).tables


def test_cli_interleave(tmp_path):
    parts = []
    for seed in (1, 2):
        p = tmp_path / f"p{seed}.trace"
        save_trace(gen_synthetic(GeneratorSpec("loop", 10, 50, seed=seed)), p)
        parts.append(str(p))
    merged = tmp_path / "merged.trace"
    assert main(["interleave", "-o", str(merged)] + parts) == 0
    assert merged.stat().st_size > 0


def test_cli_interleave_rejects_an_address_outside_the_core_window(tmp_path, capsys):
    parts = [tmp_path / "low.trace", tmp_path / "high.trace"]
    save_trace(make_trace([0x40]), parts[0])
    save_trace(make_trace([(1 << 64) - 64]), parts[1])
    merged = tmp_path / "merged.trace"
    assert main(["interleave", "-o", str(merged), *map(str, parts)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["ehcsim: interleave input 1: address 0xffffffffffffffc0 "
                   "is outside the 4 GB window of one core"]
    assert not merged.exists()


def test_cli_usage_errors(trace_file, tmp_path):
    out = str(tmp_path / "x.csv")
    # argparse rejections and explicit usage errors both exit 1
    assert main(["run", "--trace", str(trace_file), "--policy", "bogus",
                 "--csv", out]) == 1
    assert main(["run", "--trace", str(trace_file), "--policy", "ehc",
                 "--sets", "3", "--ways", "4", "--csv", out]) == 1


@pytest.mark.parametrize("flag, value", [("--seed", "-5"), ("--alpha", "nan")])
def test_cli_gen_rejects_an_invalid_spec(tmp_path, capsys, flag, value):
    out = tmp_path / "x.trace"
    assert main(["gen", "--kind", "zipf", "--blocks", "10", "--length", "10",
                 flag, value, "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ehcsim: {flag[2:]} must be"), err
    assert not out.exists()


@pytest.mark.parametrize("flag, field", [("--blocks", "block_count"), ("--length", "length")])
@pytest.mark.parametrize("kind", ["stream", "loop", "zipf", "region", "mixed"])
def test_cli_gen_rejects_more_than_2_to_the_58(tmp_path, capsys, kind, flag, field):
    out = tmp_path / "x.trace"
    for big in ((1 << 58) + 1, 1 << 63, 1 << 64, 1 << 70):
        blocks, length = (big, 10) if flag == "--blocks" else (10, big)
        assert main(["gen", "--kind", kind, "--blocks", str(blocks), "--length", str(length),
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ehcsim: {field} must be between 1 and 2^58, not {big}"]
        assert not out.exists()


WRAPPING_WAYS = str((1 << 60) + 1)  # 16 sets x these ways wrap around int64


@pytest.mark.parametrize("command, sets, ways", [
    (["run", "--policy", "lru"], "16", WRAPPING_WAYS),
    (["run", "--policy", "lru", "--events"], "16", WRAPPING_WAYS),
    (["analyze", "--report", "min-gap", "--policy", "lru"], "16", WRAPPING_WAYS),
    (["analyze", "--report", "hitcount-block"], "16", WRAPPING_WAYS),
    (["run", "--policy", "lru"], str(1 << 40), "16"),  # more memory than any host
    (["run", "--policy", "ehc"], str(1 << 70), "2"),   # beyond int64
    (["analyze", "--report", "victim-quality"], "1", str(1 << 62)),  # ranks beyond memory
    (["run", "--policy", "lru", "--events"], "1", str(1 << 40)),  # event rows beyond memory
    (["run", "--policy", "lru", "--events"], "1", str(1 << 62)),
])
def test_cli_reports_a_geometry_it_cannot_allocate(trace_file, tmp_path, command, sets, ways):
    # In a child process, so that a crash in the kernel fails this test
    # instead of ending the test run. Without the kernel the reference
    # engine would try to build these tables in Python.
    assert _kernels.unavailable() is None, _kernels.unavailable()
    if command[-1] == "--events":
        command = [*command, str(tmp_path / "events.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "ehcsim", *command, "--trace", str(trace_file),
         "--sets", sets, "--ways", ways, "--csv", str(tmp_path / "x.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ehcsim: cannot allocate"), proc.stderr


# Without the kernel, these must fail the same way and before any table is
# built: the reference MIN cannot convert 2^70 sets to uint64, and the reference
# engine would build all 16 x (2^60 + 1) blocks.
NO_KERNEL = """
import resource, sys
# Should the check regress, run out of memory at 1 GiB instead of the host's.
resource.setrlimit(resource.RLIMIT_DATA, (1 << 30, 1 << 30))
from ehcsim import _kernels
_kernels._native = lambda: (None, "disabled")
from ehcsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command, sets, ways", [
    (["run", "--policy", "ehc"], str(1 << 70), "2"),
    (["analyze", "--report", "hitcount-block"], str(1 << 70), "2"),
    (["run", "--policy", "lru"], "16", WRAPPING_WAYS),
    (["compare", "--policies", "ship"], "16", WRAPPING_WAYS),
    (["analyze", "--report", "min-gap", "--policy", "lru"], "16", WRAPPING_WAYS),
    # The engine fills lines as they are used, so only its event rows,
    # allocated before the first access, see these ways.
    (["run", "--policy", "lru", "--events"], "1", str(1 << 40)),
    (["run", "--policy", "lru", "--events"], "1", str(1 << 62)),
])
def test_cli_reports_a_geometry_too_large_without_the_kernel(trace_file, tmp_path, command,
                                                             sets, ways):
    if command[-1] == "--events":
        command = [*command, str(tmp_path / "events.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", NO_KERNEL, *command, "--trace", str(trace_file),
         "--sets", sets, "--ways", ways, "--csv", str(tmp_path / "x.csv")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    if int(sets) * int(ways) < 1 << 63:  # passes check_geometry, so auto falls back first
        assert lines.pop(0) == ("ehcsim: native kernel unavailable (disabled); "
                                "using the reference engine"), proc.stderr
    assert len(lines) == 1 and lines[0].startswith("ehcsim: cannot allocate"), proc.stderr


LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_DATA, (1 << 30, 1 << 30))
from ehcsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("kind, blocks, length", [
    ("zipf", 10**11, 10),
    ("region", 10**11, 10),
    ("stream", 10, 10**11),
    ("loop", 10, 10**11),
])
def test_cli_reports_running_out_of_memory(tmp_path, kind, blocks, length):
    out = tmp_path / "x.trace"
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED, "gen", "--kind", kind, "--blocks", str(blocks),
         "--length", str(length), "-o", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ehcsim: cannot allocate"), proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


# Without the kernel, the reference engine allocates what a set needs when
# the set is first touched, so a geometry far larger than memory runs.
NO_COMPILER = """
import resource, sys
from pathlib import Path
resource.setrlimit(resource.RLIMIT_DATA, (512 << 20, 512 << 20))
from ehcsim import _kernels
_kernels._COMPILER = "ehcsim-no-such-cc"
_kernels._cache_dirs = lambda: [Path(sys.argv[1])]
from ehcsim.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("policy", ["lru", "drrip", "ship", "ehc"])
def test_reference_engine_runs_a_geometry_larger_than_memory(trace_file, tmp_path, policy):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    out = tmp_path / "run.csv"
    sets, ways = 1 << 30, 16
    proc = subprocess.run(
        [sys.executable, "-c", NO_COMPILER, str(cache), "run", "--policy", policy,
         "--trace", str(trace_file), "--sets", str(sets), "--ways", str(ways),
         "--csv", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "native kernel unavailable (no C compiler" in proc.stderr
    _, rows = Report.parse(out.read_text()).tables["run"]
    accesses, hits = int(rows[0][1]), int(rows[0][2])
    trace = load_trace(trace_file)
    assert accesses == len(trace)
    if policy == "lru":
        assert hits == int(lru_oracle_hits(trace, CacheGeometry(sets, ways)).sum())


@pytest.mark.parametrize("command", [["run", "--policy", "lru"], ["compare", "--policies", "ehc"]])
def test_cli_without_a_compiler_reports_a_bad_trace_in_one_line(tmp_path, command):
    # The fallback notice comes when the reference engine first runs in the
    # kernel's place, so a trace rejected before that gets only its error.
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"EHCT\x01")
    proc = subprocess.run(
        [sys.executable, "-c", NO_COMPILER, str(cache), *command, "--trace", str(bad),
         "--csv", str(tmp_path / "x.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["ehcsim: trace header incomplete"]


def test_cli_data_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    missing = str(tmp_path / "nope.trace")
    assert main(["run", "--trace", missing, "--policy", "lru", "--csv", out]) == 2
    corrupt = tmp_path / "bad.trace"
    corrupt.write_bytes(b"EHCT" + b"\x00" * 5)
    assert main(["run", "--trace", str(corrupt), "--policy", "lru",
                 "--csv", out]) == 2


def _write_bad_kind(trace, path):
    trace.kind[3] = 7
    save_trace(trace, path)


def _write_decreasing_seq(trace, path):
    trace.seq[5] = 1
    save_trace(trace, path)


def _write_trailing_bytes(trace, path):
    save_trace(trace, path)
    with open(path, "ab") as fh:
        fh.write(bytes(8))


@pytest.mark.parametrize(
    "write_bad", [_write_bad_kind, _write_decreasing_seq, _write_trailing_bytes]
)
def test_cli_rejects_invalid_trace_files(tmp_path, write_bad):
    path = tmp_path / "bad.trace"
    write_bad(_loop_trace(), path)
    assert main(["run", "--trace", str(path), "--policy", "lru",
                 "--csv", str(tmp_path / "x.csv")]) == 2


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0


# ``python -m ehcsim`` ends with ``os._exit`` once it has flushed stdout and
# stderr, so these children check that the flushes keep what was printed.
CLI_TEXT = json.loads(Path(__file__).with_name("cli_text.json").read_text())


def _ehcsim(*args, unbuffered=False, **kwargs):
    # Buffered output unless asked otherwise, so that what is not flushed
    # before the exit is lost.
    env = {**os.environ, "COLUMNS": str(CLI_TEXT["columns"])}
    for name in ("LINES", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "ehcsim", *map(str, args)], env=env,
                          timeout=120, **kwargs)


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != CLI_TEXT["python"],
                    reason=f"the text was captured under Python {CLI_TEXT['python']}")
def test_cli_process_prints_all_of_its_help():
    for case in ("help", "run-help"):
        want = CLI_TEXT["cases"][case]
        proc = _ehcsim(*want["argv"], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (want["exit"], want["stdout"],
                                                               want["stderr"]), case


@pytest.mark.parametrize("kind", ["usage", "data"])
def test_cli_process_prints_its_error_line(trace_file, tmp_path, kind):
    if kind == "usage":  # a geometry the handler rejects, exit 1
        args, code = ["run", "--trace", trace_file, "--policy", "lru", "--sets", "3"], 1
    else:  # a truncated trace, exit 2
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"EHCT\x01")
        args, code = ["compare", "--trace", bad, "--policies", "lru,ehc"], 2
    proc = _ehcsim(*args, "--csv", tmp_path / "x.csv", capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ehcsim: "), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("unbuffered", [True, False])
def test_cli_help_into_a_closed_pipe_ends_as_without_the_early_exit(unbuffered):
    # Unbuffered, argparse drops the help it cannot write and the process
    # exits 0 silently. Buffered, the flush before the exit fails, and the
    # interpreter reports that at its own exit with status 120.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _ehcsim("-h", unbuffered=unbuffered, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    if unbuffered:
        assert (proc.returncode, proc.stderr) == (0, b"")
    else:
        assert proc.returncode == 120, proc.stderr
        assert proc.stderr.splitlines()[-1] == b"BrokenPipeError: [Errno 32] Broken pipe"


class _Exited(Exception):
    pass


def test_exit_with_main_flushes_then_exits_without_finalizing(monkeypatch):
    out = io.StringIO()
    flushed = []
    monkeypatch.setattr(out, "flush", lambda: flushed.append(out.getvalue()))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "argv", ["ehcsim", "--help"])

    def _exit(code):
        raise _Exited(code)

    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(_Exited) as exited:
        cli.exit_with_main()
    assert exited.value.args == (0,)
    assert flushed and flushed[0].startswith("usage: ehcsim")


def test_exit_with_main_leaves_a_failed_flush_to_the_interpreter(monkeypatch):
    class BrokenPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    monkeypatch.setattr(sys, "argv", ["ehcsim", "run"])
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit after a failed flush"))
    with pytest.raises(SystemExit) as exited:
        cli.exit_with_main()
    assert exited.value.code == 1


def test_cli_reruns_are_byte_identical(trace_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = subprocess.run(
            [sys.executable, "-m", "ehcsim", "compare",
             "--trace", str(trace_file), "--policies", "brrip,drrip,ehc",
             "--sets", "64", "--ways", "4", "--seed", "11",
             "--csv", str(out)],
        ).returncode
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
