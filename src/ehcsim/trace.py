"""Access traces: data model, binary file format, synthetic generators.

A trace is a column-oriented sequence of LLC accesses. Each access carries an
instruction sequence number (``seq``), the core id, the program counter of the
load/store, the byte address, and a read/write kind. ``seq`` doubles as the
instruction counter: MPKI is computed against ``instruction_count``, which is
the maximum ``seq`` in the trace.

The file format, its header check and the record checks' messages are in
:mod:`ehcsim.traceformat`, which the native kernel's loader shares.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .errors import InvalidSpec, InvalidTrace, TooManyCores
from .params import REGION_SHIFT  # 128 KB regions
from .traceformat import (
    CHUNK_RECORDS,
    CORES,
    FORMAT_VERSION,
    GENERATOR_KINDS,
    HEADER,
    KIND_READ,
    KIND_WRITE,
    MAGIC,
    RECORD_BYTES,
    RECORD_CHECKS,
    RECORD_FIELDS,
    parse_header,
    read_header,
    record_chunks,
)
from .values import Record

RECORD_DTYPE = np.dtype({
    "names": [name for name, _, _ in RECORD_FIELDS],
    "formats": [code for _, code, _ in RECORD_FIELDS],
    "offsets": [offset for _, _, offset in RECORD_FIELDS],
    "itemsize": RECORD_BYTES,
})

BLOCK_BYTES = 64
MAX_GEN_SIZE = 1 << 58  # the most blocks whose byte addresses fit in 64 bits

# Synthetic PCs: each generator phase cycles through a small pool so PC-indexed
# predictors get trainable signal without modeling real code.
PC_POOL_SIZE = 8
_PC_BASE = 0x400000


class Trace:
    """Column-oriented access trace.

    Arrays are immutable by convention: generators and readers return fresh
    traces and nothing in the simulator writes to them.
    """

    __slots__ = ("seq", "pc", "addr", "core", "kind", "instruction_count")

    def __init__(self, seq, pc, addr, core, kind, instruction_count=None):
        # Contiguous and aligned: a column viewed straight out of a file
        # buffer (one record) may be neither, and the kernels index it raw.
        self.seq = np.require(seq, dtype=np.uint64, requirements="CA")
        self.pc = np.require(pc, dtype=np.uint64, requirements="CA")
        self.addr = np.require(addr, dtype=np.uint64, requirements="CA")
        self.core = np.require(core, dtype=np.uint8, requirements="CA")
        self.kind = np.require(kind, dtype=np.uint8, requirements="CA")
        n = len(self.seq)
        if not (len(self.pc) == len(self.addr) == len(self.core) == len(self.kind) == n):
            raise ValueError("trace columns must have equal length")
        if instruction_count is None:
            instruction_count = int(self.seq.max()) if n else 0
        self.instruction_count = int(instruction_count)

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.instruction_count == other.instruction_count
            and np.array_equal(self.seq, other.seq)
            and np.array_equal(self.pc, other.pc)
            and np.array_equal(self.addr, other.addr)
            and np.array_equal(self.core, other.core)
            and np.array_equal(self.kind, other.kind)
        )

    def validate(self) -> None:
        """Check trace invariants; raises :class:`InvalidTrace` (a
        ValueError) on the first violation. The native kernel's loader
        applies the same checks in the same order."""
        if len(self) == 0:
            return
        if int(self.seq.max()) > self.instruction_count:
            raise InvalidTrace(RECORD_CHECKS["seq_count"])
        # load_trace runs this on every file, so it allocates little: kinds
        # are uint8 with KIND_READ = 0 and KIND_WRITE = 1, a one-core trace
        # needs no per-core copy, and bincount stands in for np.unique,
        # which imports numpy.ma (about 15 ms per process).
        if int(self.kind.max()) > KIND_WRITE:
            raise InvalidTrace(RECORD_CHECKS["kind"])
        if self.core.min() == self.core.max():
            per_core = [(int(self.core[0]), self.seq)]
        else:
            per_core = (
                (core, self.seq[self.core == core])
                for core in np.flatnonzero(np.bincount(self.core))
            )
        for core, seqs in per_core:
            if np.any(seqs[1:] < seqs[:-1]):
                raise InvalidTrace(RECORD_CHECKS["seq_order"].format(core=core))


def _write_records(trace: Trace, fh) -> None:
    """Write ``trace`` in the binary format to the binary stream ``fh``: the
    header, then the records packed one chunk at a time into one reused
    buffer of :data:`~ehcsim.traceformat.CHUNK_RECORDS` records."""
    n = len(trace)
    fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, n, trace.instruction_count))
    chunk = np.empty(min(n, CHUNK_RECORDS), dtype=RECORD_DTYPE)
    for start in range(0, n, CHUNK_RECORDS):
        stop = min(start + CHUNK_RECORDS, n)
        part = chunk[:stop - start]
        for name in RECORD_DTYPE.names:
            part[name] = getattr(trace, name)[start:stop]
        fh.write(part)


def write_trace(trace: Trace) -> bytes:
    """Serialize a trace to the bit-exact binary format."""
    out = io.BytesIO()
    _write_records(trace, out)
    return out.getvalue()


def read_trace(data: bytes) -> Trace:
    """Parse trace bytes; the exact inverse of :func:`write_trace`."""
    count, instruction_count = parse_header(data, len(data))
    payload = memoryview(data)[HEADER.size:]  # no copy of the records
    cols = np.frombuffer(payload, dtype=RECORD_DTYPE, count=count)
    return Trace(
        cols["seq"], cols["pc"], cols["addr"], cols["core"], cols["kind"],
        instruction_count=instruction_count,
    )


def load_trace(path) -> Trace:
    """Read and validate a trace file; any defect raises a DataError."""
    trace = _stream_records(path)
    trace.validate()
    return trace


def _stream_records(path) -> Trace:
    """The trace file at ``path``, unvalidated. Its records, of a regular
    file or of a pipe, stream through
    :func:`~ehcsim.traceformat.record_chunks` into preallocated columns, as
    :func:`ehcsim._kernels.load_trace` reads them, so a load holds the
    columns and one chunk, never the whole payload, and the chunk is gone
    before the trace is validated."""
    with open(path, "rb") as fh:
        count, instruction_count, stream = read_header(fh)
        columns = {name: np.empty(count, dtype=RECORD_DTYPE[name].type)
                   for name in RECORD_DTYPE.names}
        for start, records in record_chunks(stream, count):
            part = np.frombuffer(records, dtype=RECORD_DTYPE)
            for name, column in columns.items():
                column[start:start + len(part)] = part[name]
    return Trace(**columns, instruction_count=instruction_count)


def save_trace(trace: Trace, path) -> None:
    """Write ``trace`` to the file at ``path``, as :func:`write_trace`
    serializes it, one chunk of records at a time."""
    with open(path, "wb") as fh:
        _write_records(trace, fh)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

class GeneratorSpec(Record):
    """Parameters of a synthetic trace.

    ``alpha`` is the Zipf skew and only matters for the zipf/mixed kinds.
    ``block_count`` and ``length`` go up to :data:`MAX_GEN_SIZE`, and region
    ids must stay below 2^47, so that every address fits in 64 bits.
    """

    __slots__ = ("kind", "block_count", "length", "alpha", "seed")

    def __init__(self, kind: str, block_count: int, length: int, alpha: float = 1.0,
                 seed: int = 42):
        if kind not in GENERATOR_KINDS:
            raise InvalidSpec(f"unknown generator kind {kind!r}")
        for name, value in (("block_count", block_count), ("length", length)):
            if not 1 <= value <= MAX_GEN_SIZE:
                raise InvalidSpec(f"{name} must be between 1 and 2^58, not {value}")
        if kind in ("region", "mixed"):
            # _gen_region's spill region ids stay below n_regions times the
            # factor below; a mixed trace's region phase is its last part.
            phase = length - 3 * (length // 4) if kind == "mixed" else length
            n_regions = max(4, block_count // BLOCKS_PER_REGION)
            if n_regions * ((phase - 1) // BLOCKS_PER_REGION + 2) > 1 << (64 - REGION_SHIFT):
                raise InvalidSpec(f"{block_count} blocks x {length} accesses could give "
                                  "region ids of 2^47 or more, beyond 64-bit addresses")
        if not (math.isfinite(alpha) and alpha >= 0):
            raise InvalidSpec(f"alpha must be a finite number >= 0, not {alpha}")
        if seed < 0:  # numpy's generators take no negative seed
            raise InvalidSpec(f"seed must be >= 0, not {seed}")
        self._init(kind, block_count, length, alpha, seed)


def _pc_pool(phase: int) -> np.ndarray:
    base = _PC_BASE + phase * 0x1000
    return np.arange(base, base + 4 * PC_POOL_SIZE, 4, dtype=np.uint64)


def _cycled_pcs(length: int, phase: int) -> np.ndarray:
    return np.resize(_pc_pool(phase), length)


def _gen_stream(spec: GeneratorSpec) -> np.ndarray:
    # Strictly increasing block addresses, never repeated.
    return np.arange(spec.length, dtype=np.uint64) * BLOCK_BYTES


def _gen_loop(spec: GeneratorSpec) -> np.ndarray:
    blocks = np.arange(spec.length, dtype=np.uint64) % spec.block_count
    return blocks * BLOCK_BYTES


def _gen_zipf(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    ranks = np.arange(1, spec.block_count + 1, dtype=np.float64)
    weights = ranks ** -spec.alpha
    cdf = np.cumsum(weights / weights.sum())
    # Rank indices are never negative, so the index column is the block
    # column, clipped and scaled in place.
    blocks = np.searchsorted(cdf, rng.random(spec.length), side="right").view(np.uint64)
    np.minimum(blocks, np.uint64(spec.block_count - 1), out=blocks)
    blocks *= np.uint64(BLOCK_BYTES)
    return blocks


# Region-correlated generator: blocks are placed in 128 KB regions and every
# region belongs to one reuse class, so the hit counts of blocks in a region
# correlate. Slots are strided so one region's blocks land in many cache sets.
BLOCKS_PER_REGION = 64
REGION_SLOT_STRIDE = 32
SHORT_HOT_BLOCKS = 8
_CLASS_SHORT, _CLASS_MEDIUM, _CLASS_NEVER = 0, 1, 2
# Region class by position: 1/4 short-reuse, 1/4 medium, 1/2 streaming.
_REGION_CLASS_CYCLE = (_CLASS_SHORT, _CLASS_NEVER, _CLASS_MEDIUM, _CLASS_NEVER)
# Traffic share multipliers per class: hot regions see most of the accesses.
_CLASS_TRAFFIC = {_CLASS_SHORT: 6.0, _CLASS_MEDIUM: 2.0, _CLASS_NEVER: 1.5}


def _gen_region(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    n_regions = max(4, spec.block_count // BLOCKS_PER_REGION)
    cycle = np.array(_REGION_CLASS_CYCLE)
    weights = np.array([_CLASS_TRAFFIC[c] for c in _REGION_CLASS_CYCLE])
    weights = weights[np.arange(n_regions) % len(cycle)]
    cdf = np.cumsum(weights / weights.sum())
    chosen = np.searchsorted(cdf, rng.random(spec.length), side="right")
    chosen = np.minimum(chosen, n_regions - 1).astype(np.uint64)

    # k: how many earlier accesses chose the same region. numpy radix-sorts
    # 8- and 16-bit keys, so the narrowest type sorts fastest.
    order = np.argsort(chosen.astype(np.min_scalar_type(n_regions - 1)), kind="stable")
    ranked = chosen[order]
    k = np.empty_like(chosen)
    k[order] = np.arange(spec.length) - np.searchsorted(ranked, ranked)

    cls = cycle[chosen % len(cycle)]
    slot = np.where(cls == _CLASS_SHORT, k % SHORT_HOT_BLOCKS, k % BLOCKS_PER_REGION)
    # Streaming: every visit touches a fresh block; once a region's 64
    # slots are consumed, spill into a new region id (disjoint from the
    # base regions and from other spills).
    spill = n_regions * (k // BLOCKS_PER_REGION + 1) + chosen
    region_id = np.where(cls == _CLASS_NEVER, spill, chosen)
    return region_id << REGION_SHIFT | slot * (REGION_SLOT_STRIDE * BLOCK_BYTES)


def gen_synthetic(spec: GeneratorSpec) -> Trace:
    """Generate a deterministic synthetic trace from ``spec``.

    Every record is a read on core 0 with ``seq`` equal to its index plus
    one, so the trace counts one instruction per access.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "mixed":
        # Four phases, each filling its slice of the columns in turn.
        addr = np.empty(spec.length, dtype=np.uint64)
        pcs = np.empty(spec.length, dtype=np.uint64)
        quarter = spec.length // 4
        bounds = [0, quarter, 2 * quarter, 3 * quarter, spec.length]
        for phase, kind in enumerate(["loop", "zipf", "stream", "region"]):
            start, stop = bounds[phase], bounds[phase + 1]
            if stop == start:
                continue
            sub = GeneratorSpec(kind, spec.block_count, stop - start, spec.alpha, spec.seed)
            addr[start:stop] = _dispatch_addrs(sub, rng)
            pcs[start:stop] = _cycled_pcs(stop - start, phase)
    else:
        addr = _dispatch_addrs(spec, rng)
        pcs = _cycled_pcs(spec.length, phase=0)

    seq = np.arange(1, spec.length + 1, dtype=np.uint64)
    core = np.zeros(spec.length, dtype=np.uint8)
    kind = np.full(spec.length, KIND_READ, dtype=np.uint8)
    return Trace(seq, pcs, addr, core, kind)


def _dispatch_addrs(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "stream":
        return _gen_stream(spec)
    if spec.kind == "loop":
        return _gen_loop(spec)
    if spec.kind == "zipf":
        return _gen_zipf(spec, rng)
    if spec.kind == "region":
        return _gen_region(spec, rng)
    raise InvalidSpec(f"unknown generator kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Multi-core interleaving
# ---------------------------------------------------------------------------

CORE_WINDOW_BYTES = 1 << 32  # each input program gets a disjoint 4 GB window


def interleave(traces) -> Trace:
    """Merge per-program traces into one shared-LLC trace.

    Records merge in global ``seq`` order (stable: ties keep input order);
    ``core`` is overwritten with the input index, and input ``i``'s
    addresses move up by ``i`` windows of :data:`CORE_WINDOW_BYTES` (4 GB).
    Every input address must lie below that, so programs never alias and
    no address wraps; any other raises :class:`InvalidTrace`. The 8-bit core
    id numbers at most 256 inputs; more raise :class:`TooManyCores`.
    """
    traces = list(traces)
    if not traces:
        raise InvalidSpec("interleave needs at least one input trace")
    if len(traces) > CORES:
        raise TooManyCores(f"{len(traces)} inputs exceed the 8-bit core id")
    for i, t in enumerate(traces):
        outside = t.addr[t.addr >= np.uint64(CORE_WINDOW_BYTES)]
        if len(outside):
            raise InvalidTrace(f"interleave input {i}: address 0x{int(outside[0]):x} "
                               f"is outside the 4 GB window of one core")

    seq = np.concatenate([t.seq for t in traces])
    pc = np.concatenate([t.pc for t in traces])
    addr = np.concatenate(
        [t.addr + np.uint64(i * CORE_WINDOW_BYTES) for i, t in enumerate(traces)]
    )
    core = np.concatenate(
        [np.full(len(t), i, dtype=np.uint8) for i, t in enumerate(traces)]
    )
    kind = np.concatenate([t.kind for t in traces])

    order = np.argsort(seq, kind="stable")
    instruction_count = max(t.instruction_count for t in traces)
    return Trace(
        seq[order], pc[order], addr[order], core[order], kind[order],
        instruction_count=instruction_count,
    )
