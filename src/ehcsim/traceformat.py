"""The trace file format and its checks, without numpy.

Both trace loaders open files through :func:`read_header`, which checks the
header and the size and hands back one record stream for a file or a pipe.
Both loaders, the numpy one (:func:`ehcsim.trace.load_trace`) and the
native kernel's (:func:`ehcsim._kernels.load_trace`), read that stream
through :func:`record_chunks`, one reused buffer of :data:`CHUNK_RECORDS`
records, into preallocated columns, and the writer, :func:`ehcsim.trace.save_trace`,
packs its records through one such buffer too, so none of them holds a
copy of the whole payload. Both loaders reject a bad record with the
messages of :data:`RECORD_CHECKS`. ``_kernels`` generates the record layout
and the check numbers into the kernel's ``#define`` block.

File format (little-endian): magic ``EHCT``, version byte ``0x01``, u64 record
count, u64 instruction count, then packed 26-byte records
(seq u64, pc u64, addr u64, core u8, kind u8). No padding, no footer.
"""

from __future__ import annotations

import io
import os
import stat
import struct

from .errors import BadMagic, Truncated, TrailingBytes, UnsupportedVersion

MAGIC = b"EHCT"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sBQQ")

#: A record's fields in file order: name, numpy type code, byte offset.
RECORD_FIELDS = (
    ("seq", "<u8", 0), ("pc", "<u8", 8), ("addr", "<u8", 16), ("core", "u1", 24),
    ("kind", "u1", 25),
)
RECORD_BYTES = 26
#: Records per chunk that both loaders read and the writer packs: 104 KB.
CHUNK_RECORDS = 4096
#: Core ids: a record's core field is one byte.
CORES = 1 << 8

KIND_READ = 0
KIND_WRITE = 1

#: The record checks, in the order both loaders apply them; a trace fails
#: on the first. The kernel reports the 1-based number of the failed check.
RECORD_CHECKS = {
    "seq_count": "instruction_count below the largest seq",
    "kind": "kind must be Read or Write",
    "seq_order": "seq not non-decreasing for core {core}",
}

#: The synthetic generators of :func:`ehcsim.trace.gen_synthetic`, here so
#: that the CLI's parser needs no numpy.
GENERATOR_KINDS = ("stream", "loop", "zipf", "region", "mixed")


def fewer_records(count: int) -> Truncated:
    """The error for a payload shorter than the ``count`` records its header
    declares."""
    return Truncated(f"header declares {count} records, payload holds fewer")


def parse_header(head: bytes, size: int) -> tuple[int, int]:
    """``(record count, instruction count)`` from the first bytes of a
    trace of ``size`` bytes; raises unless exactly those records follow."""
    if len(head) < 5 or head[:4] != MAGIC:
        raise BadMagic("not a trace file (bad magic)")
    if head[4] != FORMAT_VERSION:
        raise UnsupportedVersion(f"trace format version {head[4]} not supported")
    if len(head) < HEADER.size:
        raise Truncated("trace header incomplete")
    _, _, count, instruction_count = HEADER.unpack_from(head)
    payload, need = size - HEADER.size, count * RECORD_BYTES
    if payload < need:
        raise fewer_records(count)
    if payload > need:
        raise TrailingBytes(f"{payload - need} bytes follow the {count} declared records")
    return count, instruction_count


def read_header(fh) -> tuple[int, int, io.BufferedIOBase]:
    """``(record count, instruction count, records)`` of the trace file open
    as ``fh``, read from its start; raises a
    :class:`~ehcsim.errors.DataError` on a bad header or size, before any
    record is checked.

    ``records`` is the stream the records follow in: ``fh`` itself for a
    regular file, whose size is checked against its header before any
    record is read, and for anything else (a pipe), which is read to its
    end for the size check, an :class:`io.BytesIO` over what was read.
    Both loaders read ``records`` through :func:`record_chunks` into their
    columns; only a pipe's records are held whole.
    """
    st = os.fstat(fh.fileno())
    head = fh.read(HEADER.size)
    if stat.S_ISREG(st.st_mode):
        return (*parse_header(head, st.st_size), fh)
    records = fh.read()
    return (*parse_header(head, len(head) + len(records)), io.BytesIO(records))


def record_chunks(stream, count: int):
    """Yield ``(start, records)`` for each chunk of the ``count`` records
    that follow in ``stream``, as :func:`read_header` returns it: the
    position of the chunk's first record and a memoryview of its packed
    records, at most :data:`CHUNK_RECORDS` of them. Every chunk is read into
    one reused buffer, so a view holds its records only until the next
    chunk is read."""
    view = memoryview(bytearray(min(count, CHUNK_RECORDS) * RECORD_BYTES))
    for start in range(0, count, CHUNK_RECORDS):
        size = min(CHUNK_RECORDS, count - start) * RECORD_BYTES
        # Fewer only if the file shrank since its size was checked.
        if stream.readinto(view[:size]) < size:
            raise fewer_records(count)
        yield start, view[:size]
