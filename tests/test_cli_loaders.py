"""Property test: ``run`` and ``compare`` (each with and without
``--events``) and the five ``analyze`` reports give the same exit status,
error line, CSV and event dump on the native kernel's path (the C trace
loader) as on the numpy loader with the reference engine and the numpy MIN
oracle, for valid trace files and for files with a mutated header count,
instruction count, seq, core or kind byte, cut short or followed by extra
bytes. ``interleave`` of such files exits with the status and the one
error line of their load, or writes the interleaved trace."""

import contextlib
import io
import struct
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from ehcsim import DataError, Trace, _kernels, interleave, load_trace, write_trace
from ehcsim.analysis import REPORT_KINDS
from ehcsim.cli import main
from ehcsim.runner import POLICY_NAMES
from ehcsim.traceformat import FORMAT_VERSION, HEADER, MAGIC, RECORD_BYTES, RECORD_FIELDS

# Byte ranges of the mutated header fields: after the magic and the version
# come the record count and the instruction count, 8 bytes each.
HEADER_FIELDS = {"count": (5, 8), "instructions": (13, 8)}
RECORD_SPANS = {name: (offset, int(code[-1])) for name, code, offset in RECORD_FIELDS}


@st.composite
def trace_files(draw):
    """A valid trace of up to 12 records over 4 cores, with 1 to 3 bytes of
    its header counts or records changed, then often cut short or extended."""
    n = draw(st.integers(0, 12))
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))  # noqa: E731
    seq = sorted(column(st.integers(0, 40)))
    core = column(st.integers(0, 3))
    kind = column(st.integers(0, 1))
    pc = column(st.integers(0, 7).map(lambda k: 0x400000 + 4 * k))
    addr = column(st.one_of(st.integers(0, 31).map(lambda b: 64 * b),
                            st.integers(0, (1 << 64) - 1)))
    data = bytearray(write_trace(Trace(seq, pc, addr, core, kind)))
    fields = st.sampled_from(("count", "instructions", "seq", "core", "kind"))
    for field in draw(st.lists(fields, min_size=1, max_size=3)):
        if field in HEADER_FIELDS:
            start, width = HEADER_FIELDS[field]
        elif n:
            offset, width = RECORD_SPANS[field]
            start = HEADER.size + draw(st.integers(0, n - 1)) * RECORD_BYTES + offset
        else:
            continue
        # The low byte most often: small changes to counts, cores and kinds.
        at = start + draw(st.one_of(st.just(0), st.integers(0, width - 1)))
        data[at] = draw(st.one_of(st.integers(0, 3), st.integers(0, 255)))
    size = draw(st.sampled_from(["keep", "keep", "keep", "truncate", "extend"]))
    if size == "truncate":
        del data[draw(st.integers(0, len(data))):]
    elif size == "extend":
        data += draw(st.binary(min_size=1, max_size=2 * RECORD_BYTES))
    return bytes(data)


def _cli(argv, csv_path: Path, dump_path: Path):
    """``(exit status, stderr lines, CSV text or None, event dump text or
    None)`` of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--csv", str(csv_path)])
    texts = []
    for path in (csv_path, dump_path):
        texts.append(path.read_text() if path.exists() else None)
        path.unlink(missing_ok=True)
    return code, err.getvalue().splitlines(), *texts


@settings(max_examples=120, deadline=None, derandomize=True)
@given(trace_files(), st.sampled_from(POLICY_NAMES),
       st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=3, unique=True),
       st.sampled_from([(1, 1), (4, 2), (16, 4)]), st.booleans(), st.sampled_from(REPORT_KINDS))
# The policies are drawn distinct; a repeated name exits 1 before any run.
@example(write_trace(Trace([0, 1], [0x400000] * 2, [0, 64], [0, 0], [0, 0])), "ehc",
         ["lru", "lru"], (4, 2), False, "no-averse")
def test_kernel_path_runs_like_the_numpy_loader_and_the_reference_engine(
        data, policy, policies, geometry, events, report):
    assert _kernels.unavailable() is None, _kernels.unavailable()
    with tempfile.TemporaryDirectory() as tmp:
        trace, csv_path = Path(tmp) / "t.trace", Path(tmp) / "out.csv"
        dump_path = Path(tmp) / "events.csv"
        trace.write_bytes(data)
        shape = ["--trace", str(trace), "--sets", str(geometry[0]), "--ways", str(geometry[1])]
        run = ["run", "--policy", policy, *shape] + ["--events", str(dump_path)] * events
        compare = ["compare", "--policies", ",".join(policies), *shape] + ["--events"] * events
        for argv in (run, compare, ["analyze", "--report", report, "--policy", policy, *shape]):
            kernel = _cli(argv, csv_path, dump_path)
            with mock.patch.object(_kernels, "_native", lambda: (None, "disabled")):
                code, err, text, dump = _cli(argv, csv_path, dump_path)
            # Once per process the reference run also says why it runs.
            err = [line for line in err if "native kernel unavailable" not in line]
            assert kernel == (code, err, text, dump), argv
            code, err, text, dump = kernel
            dumped = code == 0 and argv is run and events
            assert (dump is not None) == dumped, argv
            if code == 0:
                assert err == [] and text is not None
            else:
                assert len(err) == 1 and err[0].startswith("ehcsim: ") and text is None, err
        _assert_interleave_loads_like_the_loader(trace, Path(tmp) / "merged.trace")


def _assert_interleave_loads_like_the_loader(trace: Path, merged: Path):
    """``interleave`` of the file at ``trace`` with itself fails with exit 2
    and the one error line of the numpy loader's, or of ``interleave``'s,
    error, or writes what :func:`ehcsim.interleave` makes of it."""
    try:
        expected = write_trace(interleave([load_trace(trace)] * 2))
        error = None
    except DataError as e:
        expected, error = None, f"ehcsim: {e}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["interleave", "-o", str(merged), str(trace), str(trace)])
    written = merged.read_bytes() if merged.exists() else None
    merged.unlink(missing_ok=True)
    if error is None:
        assert (code, err.getvalue(), written) == (0, "", expected)
    else:
        assert (code, err.getvalue().splitlines(), written) == (2, [error], None)


U64 = st.integers(0, (1 << 64) - 1)


def records(n):
    """``n`` records of arbitrary bytes, or of seqs 0-3, cores 0, 1 and 255
    and mostly valid kinds around arbitrary PCs and addresses, so that
    every record check has the last word on some of them."""
    near = st.builds(lambda seq, pc, addr, core, kind: struct.pack("<QQQBB", seq, pc, addr,
                                                                   core, kind),
                     st.integers(0, 3), U64, U64, st.sampled_from((0, 1, 1, 255)),
                     st.sampled_from((0, 1, 0, 1, 0, 1, 2, 255)))
    return st.one_of(st.binary(min_size=n * RECORD_BYTES, max_size=n * RECORD_BYTES),
                     st.lists(near, min_size=n, max_size=n).map(b"".join))


@st.composite
def arbitrary_files(draw):
    """Arbitrary bytes: as a whole file, or as 0-8 records after a valid
    header whose record count is theirs (or one off) and whose instruction
    count is any u64."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=4 * RECORD_BYTES))
    n = draw(st.integers(0, 8))
    count = max(n + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    instructions = draw(st.one_of(U64, st.integers(0, 4), st.just((1 << 64) - 1)))
    return HEADER.pack(MAGIC, FORMAT_VERSION, count, instructions) + draw(records(n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arbitrary_files())
def test_c_record_reader_takes_arbitrary_bytes_like_the_numpy_loader(data):
    assert _kernels.unavailable() is None, _kernels.unavailable()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.trace"
        path.write_bytes(data)
        try:
            want = load_trace(path)
        except DataError as e:
            want = e
        try:
            got = _kernels.load_trace(path)
        except DataError as e:
            got = e
    if isinstance(want, DataError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert not isinstance(got, DataError), got
        assert (list(got.pc), list(got.addr), got.instruction_count) == (
            want.pc.tolist(), want.addr.tolist(), want.instruction_count)
