"""Trace data model: binary format, generators, interleaving."""

import contextlib
import hashlib
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehcsim import (
    BadMagic,
    DataError,
    GeneratorSpec,
    InvalidSpec,
    TooManyCores,
    InvalidTrace,
    Trace,
    TrailingBytes,
    Truncated,
    UnsupportedVersion,
    gen_synthetic,
    interleave,
    load_trace,
    read_trace,
    save_trace,
    write_trace,
)
from ehcsim import _kernels
from ehcsim.trace import FORMAT_VERSION, MAGIC, MAX_GEN_SIZE, RECORD_DTYPE, _gen_region
from ehcsim.traceformat import CHUNK_RECORDS as CHUNK, HEADER, RECORD_BYTES

from conftest import make_trace, traced_peak
from loop_oracles import loop_gen_region


def test_record_layout_is_26_bytes():
    assert RECORD_DTYPE.itemsize == 26


def test_empty_trace_is_21_bytes():
    t = Trace([], [], [], [], [])
    data = write_trace(t)
    assert len(data) == 21
    assert read_trace(data) == t


def test_one_record_is_47_bytes():
    t = make_trace([0x40])
    assert len(write_trace(t)) == 21 + 26


def test_round_trip_three_records():
    t = Trace(
        seq=[0, 1, 2],
        pc=[0x400100, 0x400104, 0x400100],
        addr=[0x1000, 0x2000, 0x1000],
        core=[0, 0, 0],
        kind=[0, 1, 0],
    )
    assert read_trace(write_trace(t)) == t


def test_round_trip_preserves_instruction_count():
    t = Trace([0, 5], [1, 1], [0x40, 0x80], [0, 0], [0, 0], instruction_count=99)
    assert read_trace(write_trace(t)).instruction_count == 99


def test_bad_magic():
    with pytest.raises(BadMagic):
        read_trace(b"NOPE" + bytes(17))


def test_unsupported_version():
    data = bytearray(write_trace(make_trace([0x40])))
    data[4] = FORMAT_VERSION + 1
    with pytest.raises(UnsupportedVersion):
        read_trace(bytes(data))


def test_truncated_header():
    with pytest.raises(Truncated):
        read_trace(MAGIC + bytes([FORMAT_VERSION]))


def test_truncated_records():
    # Header declares one more record than is actually encoded.
    t = make_trace([0x40 * i for i in range(10)])
    data = write_trace(t)
    with pytest.raises(Truncated):
        read_trace(data[:-26])


def test_validate_checks_seq_per_core():
    # seq may go down between cores, never within one
    t = Trace([1, 5, 2, 6], [0] * 4, [0x40] * 4, [0, 1, 0, 1], [0] * 4)
    t.validate()
    t.seq[3] = 4
    with pytest.raises(InvalidTrace, match="core 1"):
        t.validate()


def test_trailing_bytes():
    # The format has no padding and no footer.
    data = write_trace(make_trace([0x40 * i for i in range(10)]))
    with pytest.raises(TrailingBytes):
        read_trace(data + bytes(8))
    with pytest.raises(TrailingBytes):
        read_trace(write_trace(make_trace([])) + b"\x00")


def test_one_record_round_trip():
    # The record sits at an odd offset in the file buffer.
    t = make_trace([(0x500, 0x40)])
    back = read_trace(write_trace(t))
    assert back == t and back.addr.flags.aligned


def test_load_trace_validates(tmp_path):
    t = make_trace([0x40, 0x80])
    t.kind[1] = 7
    path = tmp_path / "bad.trace"
    save_trace(t, path)
    with pytest.raises(InvalidTrace):
        load_trace(path)


def _records(seq, core, kind=None, instruction_count=None):
    """Trace file bytes with these seqs and cores, reads unless ``kind`` says."""
    n = len(seq)
    return write_trace(Trace(
        seq, [0x400000 + 4 * i for i in range(n)], [0x40 * i for i in range(n)], core,
        [0] * n if kind is None else kind, instruction_count=instruction_count,
    ))


def _trace_files():
    ten = write_trace(make_trace([0x40 * i for i in range(10)]))
    old_version = bytearray(ten)
    old_version[4] = FORMAT_VERSION + 1
    return {
        "ten": ten,
        "empty-trace": write_trace(make_trace([])),
        "one-record": write_trace(make_trace([(0x500, 0x40)])),
        "empty-file": b"",
        "bad-magic": b"NOPE" + ten[4:],
        "old-version": bytes(old_version),
        "short-header": ten[:12],
        "truncated": ten[:-1],
        "trailing": ten + bytes(8),
        "two-cores": _records([5, 1, 6, 2], [3, 1, 3, 1], kind=[0, 1, 1, 0]),
        "kind-2": _records([1, 2, 3], [0, 0, 0], kind=[0, 2, 1]),
        "seq-above-count": _records([1, 2, 9], [0, 0, 0], instruction_count=8),
        # Both cores' seqs decrease; the check names the lower core.
        "seq-decreases-on-cores-3-and-1": _records([5, 6, 2, 3], [3, 1, 3, 1]),
        # The checks apply in order: the count, then the kind, then the order.
        "every-check-fails": _records([5, 9, 2], [0, 0, 0], kind=[0, 7, 0],
                                      instruction_count=8),
        "kind-and-order-fail": _records([5, 6, 2], [0, 0, 0], kind=[0, 3, 0]),
    }


@pytest.mark.parametrize("name", _trace_files())
def test_load_trace_reads_files_as_read_trace_reads_bytes(tmp_path, name):
    _assert_loaders_read_as_read_trace(tmp_path, _trace_files()[name])


def _assert_loaders_read_as_read_trace(tmp_path, data, pipe=False):
    """Both loaders, numpy's and the native kernel's (which reads only the
    columns the kernel runs on and checks the records in C), read the file
    of ``data``, or with ``pipe`` a pipe that carries it, as
    :func:`read_trace` reads it, or raise its error."""
    path = tmp_path / "t.trace"
    path.write_bytes(data)
    source = (lambda: _pipe(data)) if pipe else (lambda: contextlib.nullcontext(path))
    try:
        expected = read_trace(data)
        expected.validate()
    except DataError as e:
        for load in (load_trace, _kernels.load_trace):
            with source() as src, pytest.raises(DataError) as raised:
                load(src)
            assert type(raised.value) is type(e) and str(raised.value) == str(e), load
    else:
        with source() as src:
            got = load_trace(src)
        assert got == expected and got.addr.flags.aligned
        with source() as src:
            columns = _kernels.load_trace(src)
        assert list(columns.pc) == expected.pc.tolist()
        assert list(columns.addr) == expected.addr.tolist()
        assert columns.instruction_count == expected.instruction_count


def test_load_trace_reads_a_pipe():
    # Not a regular file, so its size says nothing about the records.
    data = write_trace(make_trace([0x40 * i for i in range(10)]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from ehcsim import load_trace; print(len(load_trace('/dev/stdin')))"],
        input=data, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == b"10", proc.stderr


def _chunked(n, defects=(), instruction_count=None):
    """Trace file bytes of ``n`` records over 4 cores, seq rising with the
    position, with ``defects`` of ``(position, field, value)`` applied."""
    seq, core, kind = list(range(n)), [i % 4 for i in range(n)], [i % 2 for i in range(n)]
    columns = {"seq": seq, "core": core, "kind": kind}
    for position, field, value in defects:
        columns[field][position] = value
    return _records(seq, core, kind,
                    instruction_count=n if instruction_count is None else instruction_count)


@pytest.mark.parametrize("data", [
    # Core 0's seq falls from its last record in the first chunk to its
    # first in the second: the state carries each core's last seq.
    _chunked(2 * CHUNK + 3, [(CHUNK, "seq", CHUNK - 8)]),
    # Core 3's seq falls in the first chunk and core 1's in the second: the
    # error names the lowest such core, not the first.
    _chunked(2 * CHUNK + 3, [(7, "seq", 0), (CHUNK + 1, "seq", 0)]),
    # A bad kind in the last, partial chunk, after two clean ones.
    _chunked(2 * CHUNK + 3, [(2 * CHUNK + 2, "kind", 2)]),
    # A seq above the instruction count at the end of the first chunk; it
    # also makes the next seq of its core decrease, which is checked later.
    _chunked(2 * CHUNK + 3, [(CHUNK - 1, "seq", 3 * CHUNK)]),
    # Whole chunks only: clean, and with a bad kind in the very last record.
    _chunked(2 * CHUNK),
    _chunked(2 * CHUNK, [(2 * CHUNK - 1, "kind", 5)]),
    # One record either side of a chunk boundary.
    _chunked(CHUNK - 1, [(CHUNK - 2, "kind", 3)]),
    _chunked(CHUNK + 1, [(CHUNK, "seq", 2 * CHUNK)]),
    _chunked(0),
    _chunked(0, instruction_count=0),
], ids=["seq-decreases-across-chunks", "lowest-core-across-chunks", "bad-kind-in-last-chunk",
        "seq-count-in-first-chunk", "whole-chunks", "whole-chunks-bad-last-kind",
        "chunk-less-one", "chunk-plus-one", "no-records", "no-records-no-instructions"])
def test_kernel_loader_checks_records_across_chunk_boundaries(tmp_path, data):
    # A pipe's records go through the same chunks as a file's.
    for pipe in (False, True):
        _assert_loaders_read_as_read_trace(tmp_path, data, pipe)


def _extreme(n):
    """A valid trace of ``n`` records with PCs and addresses up to 2^64 - 1,
    every core up to 255, and reads and writes; seq rises with the position."""
    top = (1 << 64) - 1
    return Trace(
        seq=list(range(1, n + 1)),
        pc=[top - i * 0x9E3779B97F4A7C15 % (1 << 64) for i in range(n)],
        addr=[(i * 0x9E3779B97F4A7C15 + top) % (1 << 64) for i in range(n)],
        core=[255 - i % 256 for i in range(n)],
        kind=[i % 2 for i in range(n)],
    )


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_writer_packs_every_record_across_chunk_boundaries(tmp_path, n):
    trace = _extreme(n)
    records = b"".join(struct.pack("<QQQBB", *fields) for fields in zip(
        trace.seq.tolist(), trace.pc.tolist(), trace.addr.tolist(), trace.core.tolist(),
        trace.kind.tolist()))
    expected = HEADER.pack(MAGIC, FORMAT_VERSION, n, n) + records
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    assert write_trace(trace) == path.read_bytes() == expected
    assert load_trace(path) == trace
    columns = _kernels.load_trace(path)
    assert list(columns.pc) == trace.pc.tolist() and list(columns.addr) == trace.addr.tolist()


def test_trace_io_holds_one_chunk_of_records(tmp_path):
    # Traces of 2 and 8 chunks: saving either peaks the same to within a
    # chunk, and loading the longer one holds its five columns and one
    # chunk, never a copy of the whole payload.
    n, chunk = 2 * CHUNK, CHUNK * RECORD_BYTES
    path = tmp_path / "t.trace"

    def save_peak(length):
        trace = gen_synthetic(GeneratorSpec("mixed", 4096, length, seed=5))
        return traced_peak(lambda: save_trace(trace, path))[0]

    short = save_peak(n)
    assert abs(save_peak(4 * n) - short) < chunk
    load_peak, trace = traced_peak(lambda: load_trace(path))
    assert len(trace) == 4 * n
    # 16 KB for the open file's read buffer and the call's small objects.
    assert load_peak <= 4 * n * RECORD_BYTES + chunk + 16 * 1024


@contextlib.contextmanager
def _pipe(data):
    """The path of the read end of a pipe that a thread fills with ``data``."""
    read_fd, write_fd = os.pipe()

    def feed():
        with open(write_fd, "wb") as fh:
            with contextlib.suppress(BrokenPipeError):  # the reader closed early
                fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join()


@pytest.mark.parametrize("cut", [-1, -RECORD_DTYPE.itemsize, 1, 2 * RECORD_DTYPE.itemsize])
def test_a_cut_or_extended_pipe_fails_its_size_check_before_any_record_check(cut):
    # Every record check fails in the first chunk, but the size comes first.
    count = 2 * CHUNK + 3
    data = _chunked(count, [(0, "kind", 2), (1, "seq", 3 * count)])
    data = data[:cut] if cut < 0 else data + bytes(cut)
    error, message = (
        (Truncated, f"header declares {count} records, payload holds fewer") if cut < 0
        else (TrailingBytes, f"{cut} bytes follow the {count} declared records"))
    for load in (load_trace, _kernels.load_trace):
        with _pipe(data) as path, pytest.raises(error) as raised:
            load(path)
        assert str(raised.value) == message, load


def test_kernel_loader_reads_a_pipe_in_one_piece():
    # A pipe's size says nothing about its records, so it is read to its end
    # for the size check; then its records go through the chunks a file's do.
    data = _chunked(2 * CHUNK + 3, [(2 * CHUNK + 2, "kind", 2)])
    code = ("from ehcsim import _kernels\n"
            "try:\n    _kernels.load_trace('/dev/stdin')\n"
            "except Exception as e:\n    print(type(e).__name__, e)")
    proc = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True,
                          timeout=60)
    assert proc.stdout.decode().strip() == "InvalidTrace kind must be Read or Write", proc.stderr
    good = _chunked(CHUNK + 5)
    code = "from ehcsim import _kernels; print(len(_kernels.load_trace('/dev/stdin')))"
    proc = subprocess.run([sys.executable, "-c", code], input=good, capture_output=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == str(CHUNK + 5).encode(), proc.stderr


def test_validate_rejects_bad_kind():
    t = make_trace([0x40])
    t.kind[0] = 9
    with pytest.raises(ValueError):
        t.validate()


def test_validate_rejects_decreasing_seq():
    t = make_trace([0x40, 0x80])
    t.seq[0] = 5
    t.instruction_count = 5
    with pytest.raises(ValueError):
        t.validate()


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_invalid_spec():
    with pytest.raises(InvalidSpec):
        GeneratorSpec("loop", 0, 10)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("loop", 10, 0)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("nosuch", 10, 10)
    for alpha in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidSpec, match="alpha"):
            GeneratorSpec("zipf", 10, 10, alpha=alpha)
    with pytest.raises(InvalidSpec, match="seed"):
        GeneratorSpec("zipf", 10, 10, seed=-5)
    for big in (MAX_GEN_SIZE + 1, 1 << 63, 1 << 64, 1 << 70):
        with pytest.raises(InvalidSpec, match="block_count must be between 1 and 2"):
            GeneratorSpec("zipf", big, 10)
        with pytest.raises(InvalidSpec, match="length must be between 1 and 2"):
            GeneratorSpec("stream", 10, big)
    GeneratorSpec("loop", MAX_GEN_SIZE, MAX_GEN_SIZE)


def test_spec_rejects_region_ids_whose_addresses_wrap():
    # A region id of 2^47 or more shifted by REGION_SHIFT (17) wraps.
    for kind, blocks, length in (("region", 1 << 32, 1 << 27), ("region", MAX_GEN_SIZE, 1),
                                 ("mixed", 1 << 32, 1 << 29), ("region", 64, MAX_GEN_SIZE)):
        with pytest.raises(InvalidSpec, match="region ids of 2"):
            GeneratorSpec(kind, blocks, length)
    # Just below the bound: 2^26 regions spilling at most 2^21 - 1 times.
    GeneratorSpec("region", 1 << 32, (1 << 27) - 64)
    GeneratorSpec("mixed", 1 << 32, 1 << 27)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(blocks=st.integers(1, 1 << 20), length=st.integers(1, 5000),
       seed=st.integers(0, 1 << 32))
def test_region_generator_matches_the_per_region_loop(blocks, length, seed):
    spec = GeneratorSpec("region", blocks, length, seed=seed)
    got = _gen_region(spec, np.random.default_rng(seed))
    want = loop_gen_region(spec, np.random.default_rng(seed))
    assert got.dtype == want.dtype == np.uint64
    assert np.array_equal(got, want)


# The bytes each generator writes for one small spec; any change to what a
# generator writes shows here.
PINNED_DIGESTS = [
    (GeneratorSpec("stream", 8, 50, seed=1), "4a73031f5049b4f6257b3036aec4d53d"),
    (GeneratorSpec("loop", 24, 300, seed=2), "db0d5b2f549881a57e416f0e194f7e4d"),
    (GeneratorSpec("zipf", 200, 1000, alpha=0.8, seed=3), "7d9db94ea46c0646f8e121a29e7a69f8"),
    (GeneratorSpec("region", 1024, 2000, seed=4), "b7274b5a326d3bfa6a7a0e504dfffdc5"),
    (GeneratorSpec("mixed", 512, 2000, seed=5), "df3b2fc9877fe650f84d9fa9036ae0e0"),
]


@pytest.mark.parametrize("spec, digest", PINNED_DIGESTS,
                         ids=[spec.kind for spec, _ in PINNED_DIGESTS])
def test_generated_bytes_are_pinned(spec, digest):
    data = write_trace(gen_synthetic(spec))
    assert hashlib.blake2b(data, digest_size=16).hexdigest() == digest


def test_loop_generator_cycles():
    t = gen_synthetic(GeneratorSpec("loop", 3, 6, seed=7))
    blocks = (t.addr // 64).tolist()
    b0, b1, b2 = blocks[:3]
    assert blocks == [b0, b1, b2, b0, b1, b2]
    assert len({b0, b1, b2}) == 3


def test_stream_generator_never_repeats():
    t = gen_synthetic(GeneratorSpec("stream", 500, 500, seed=1))
    assert len(set(t.addr.tolist())) == 500


def test_zipf_top_two_frequency_ratio():
    t = gen_synthetic(GeneratorSpec("zipf", 1000, 100000, alpha=1.0, seed=1))
    _, counts = np.unique(t.addr, return_counts=True)
    top = np.sort(counts)[::-1]
    ratio = top[0] / top[1]
    assert 1.6 <= ratio <= 2.4  # ideal Zipf(1.0) ratio is 2.0


def test_region_generator_groups_blocks_into_regions():
    t = gen_synthetic(GeneratorSpec("region", 4096, 20000, seed=3))
    regions = np.unique(t.addr >> np.uint64(17))
    # Several regions in play, each holding many accesses.
    assert len(regions) > 4
    # Streaming spill regions never collide with the base hot regions.
    assert len(set(regions.tolist())) == len(regions)


def test_mixed_generator_has_phases():
    t = gen_synthetic(GeneratorSpec("mixed", 256, 4000, seed=5))
    assert len(t) == 4000
    # Four phases, each with its own PC pool.
    assert len(np.unique(t.pc)) == 32


def test_generator_determinism():
    spec = GeneratorSpec("mixed", 512, 5000, alpha=1.2, seed=11)
    assert gen_synthetic(spec) == gen_synthetic(spec)
    assert write_trace(gen_synthetic(spec)) == write_trace(gen_synthetic(spec))


def test_generated_traces_validate():
    for kind in ("stream", "loop", "zipf", "region", "mixed"):
        gen_synthetic(GeneratorSpec(kind, 128, 1000, seed=2)).validate()


# ---------------------------------------------------------------------------
# Interleaving
# ---------------------------------------------------------------------------


def test_interleave_single_input_is_identity_with_core0():
    t = make_trace([0x40, 0x80, 0x40])
    out = interleave([t])
    assert np.array_equal(out.addr, t.addr)
    assert np.array_equal(out.seq, t.seq)
    assert (out.core == 0).all()


def test_interleave_merges_by_seq():
    a = Trace([0, 2], [1, 1], [0x40, 0x40], [0, 0], [0, 0])
    b = Trace([1, 3], [2, 2], [0x80, 0x80], [0, 0], [0, 0])
    out = interleave([a, b])
    assert out.seq.tolist() == [0, 1, 2, 3]
    assert out.core.tolist() == [0, 1, 0, 1]


def test_interleave_ties_stable_by_input_position():
    a = Trace([5], [1], [0x40], [0], [0])
    b = Trace([5], [2], [0x80], [0], [0])
    out = interleave([a, b])
    assert out.core.tolist() == [0, 1]


def test_interleave_disjoint_windows():
    a = make_trace([0x40])
    b = make_trace([0x40])
    out = interleave([a, b])
    assert sorted(out.addr.tolist()) == [0x40, 0x1_0000_0040]


@pytest.mark.parametrize("inputs, culprit", [
    ([[1 << 32], [0]], "input 0: address 0x100000000"),  # would alias core 1's block 0
    ([[0], [(1 << 64) - 64]], "input 1: address 0xffffffffffffffc0"),  # would wrap to 0xffffffc0
])
def test_interleave_rejects_an_address_outside_the_core_window(inputs, culprit):
    with pytest.raises(InvalidTrace, match=culprit):
        interleave([make_trace(addrs) for addrs in inputs])
    # The last byte of the window is still inside it.
    out = interleave([make_trace([0]), make_trace([(1 << 32) - 1])])
    assert out.addr.tolist() == [0, (2 << 32) - 1]


def test_interleave_preserves_per_core_order_and_count():
    rng = np.random.default_rng(8)
    parts = [
        Trace(
            seq=np.sort(rng.integers(0, 1000, size=50)),
            pc=np.full(50, c),
            addr=rng.integers(0, 1 << 20, size=50) * 64,
            core=np.zeros(50),
            kind=np.zeros(50),
        )
        for c in range(3)
    ]
    out = interleave(parts)
    assert len(out) == 150
    for c, part in enumerate(parts):
        mask = out.core == c
        assert np.array_equal(out.seq[mask], part.seq)
        assert np.array_equal(out.addr[mask], part.addr + c * (1 << 32))
    out.validate()


def test_interleave_too_many_cores():
    tiny = [make_trace([0x40]) for _ in range(257)]
    with pytest.raises(TooManyCores, match="257 inputs exceed the 8-bit core id"):
        interleave(tiny)


def test_interleave_gives_256_inputs_every_core_id(tmp_path):
    # Input 255's window, the last, ends below 2^40; both loaders read it.
    top = (1 << 32) - 64
    merged = interleave([make_trace([top]) for _ in range(256)])
    assert merged.core.tolist() == list(range(256))
    path = tmp_path / "cores.trace"
    save_trace(merged, path)
    loaded = load_trace(path)
    assert loaded == merged and int(loaded.core[255]) == 255
    columns = _kernels.load_trace(path)
    assert list(columns.addr) == merged.addr.tolist()
    assert columns.addr[255] == 255 * (1 << 32) + top < 1 << 40
