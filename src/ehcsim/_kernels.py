"""The native kernel: the fast backend that :func:`ehcsim.runner.pick_backend`
returns, whose calls :mod:`ehcsim.minoracle` answers on the reference engine,
and a trace loader for it.

``_kernel.c`` exports four functions, each reproducing its reference bit
for bit, which the test suite enforces:

- ``ehcsim_simulate`` (:func:`run`) is one flat loop per trace that covers
  the built-in policies and Belady's MIN, dispatched on a policy id, as the
  reference engine runs them. MIN reads a next-use column and writes its
  residency rows (fill, end, hits); any policy given a next-use column
  ranks its victims as :func:`ehcsim.minoracle.victim_quality` does. It
  takes the geometry as the number of sets, ways and the block offset,
  and keys lines and sampled-set slots by block number, not by tag.
- ``ehcsim_next_use`` (:func:`next_use`) is
  :func:`ehcsim.minoracle.compute_next_use` as one hashed forward scan.
- ``ehcsim_prediction_error`` (:func:`prediction_error`) buckets MIN's
  rows as :func:`ehcsim.minoracle.per_block_prediction_error` and
  :func:`~ehcsim.minoracle.per_region_prediction_error` do.
- ``ehcsim_read_records`` (:func:`load_trace`) copies the ``pc`` and
  ``addr`` fields out of a trace file's records, one chunk per call, and
  applies the record checks of :meth:`ehcsim.trace.Trace.validate`,
  carrying their state from chunk to chunk.

So a run, a compare or an analyze over the :class:`Columns` that
:func:`load_trace` returns needs no numpy; only an event log is a numpy
one. On first use this module prepends a ``#define`` block generated from
:mod:`ehcsim.params` and :mod:`ehcsim.traceformat` to the source and loads the library of that text
with ctypes. The library lives in ``__pycache__`` next to this file, or,
when that is not private to this user, in a per-user directory under the
system temporary directory; nothing is loaded from a directory another
user owns or may write to. Its name carries a digest of the header, the
source and the flags, so an edit to either builds a new one. Finding and
loading a cached library takes ``os`` and ``ctypes`` only; when it is
missing or unreadable, :mod:`ehcsim._kernel_build` compiles it with the
system C compiler (``cc -O2 -shared -fPIC``) and deletes the libraries of
other digests in its directory.

The package's bytecode is the cache's second artifact. When the library
sits in the ``__pycache__`` the interpreter reads the package's bytecode
from, and a ``.py`` file of the package, imported yet or not, has no
bytecode there or bytecode older than its source (``os.listdir`` and
``os.stat`` tell), :mod:`ehcsim._kernel_build` writes checked-hash
bytecode for every module of the package, so later processes compile none
of them, even under ``PYTHONDONTWRITEBYTECODE``.
Elsewhere (the temporary directory, a set ``sys.pycache_prefix``) nothing
is written, and a write that fails is skipped silently.

With ``record_events`` the kernel also writes each miss in a full set into
one preallocated int64 buffer as one row of trace positions, whose columns
:func:`run` hands to an :class:`~ehcsim.engine.EventLog` as they are;
without it the buffer is NULL, as are rows and ranks nobody asked for,
and the kernel records nothing there. Every other column goes to a
:func:`buffer` the caller allocates: a numpy array for a
:class:`~ehcsim.trace.Trace`, a ctypes array for :class:`Columns`.
When no compiler is found or the build fails, :func:`use_kernel` is False
for ``backend="auto"``, which picks the reference backend, and one line on
stderr per process says why.
"""

from __future__ import annotations

import ctypes
import functools
import os
import stat
import sys

from . import params, traceformat
from .errors import (GeometryTooLarge, InternalInvariantError, InvalidTrace, UnknownPolicy,
                     UsageError)
from .values import CacheGeometry, SimStats

TYPE_CHECKING = False  # typing's constant; a kernel run never imports typing
if TYPE_CHECKING:
    import numpy as np

    from .engine import EventLog
    from .trace import Trace

try:
    from _blake2 import blake2b  # what hashlib.blake2b is, without hashlib's import
except ImportError:
    from hashlib import blake2b

#: Kernel policy ids: the built-in policies, then Belady's MIN.
_POLICY_IDS = {name: k for k, name in enumerate((*params.POLICY_NAMES, "min"))}

#: The kernel's counter slots, in ``out`` order.
_COUNTERS = (
    "accesses", "hits", "misses", "replacements_total",
    "replacements_no_averse", "long_inserts", "psel", "optgen_cold",
    "optgen_hit", "optgen_miss", "bypasses", "rows", "row_hits",
)
_STATS_FIELDS = _COUNTERS[:5]
_PER_POLICY = {
    "brrip": ("long_inserts",),
    "drrip": ("psel",),
    "hawkeye": ("optgen_cold", "optgen_hit", "optgen_miss"),
    "ehc": ("optgen_cold", "optgen_hit", "optgen_miss"),
    "min": ("bypasses",),
}

#: Leading fields of an event row. The trace position of the latest access
#: to every way's resident follows, as it was before the fill.
_EVENT_FIELDS = ("index", "victim_way", "no_averse")

#: The words of the state ``ehcsim_read_records`` carries between chunks:
#: records done, the largest seq and kind, and per core its last seq and
#: whether its seq decreased.
_READ_STATE_WORDS = 3 + 2 * 256
#: Records per read when :func:`load_trace` streams a trace: 104 KB.
_CHUNK_RECORDS = 4096

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
_COMPILER = "cc"
_CFLAGS = ("-O2", "-shared", "-fPIC")

BACKENDS = ("auto", "kernel", "reference")


def _header() -> str:
    """The ``#define`` block prepended to ``_kernel.c``: every upper-case
    integer of :mod:`ehcsim.params`, then the layouts of this module and of
    :mod:`ehcsim.traceformat`."""
    # The BRRIP hash works modulo 2^64; the suffix keeps its constants unsigned.
    defines = {
        name: f"{value}ULL" if value >= 1 << 63 else value
        for name, value in vars(params).items() if name.isupper() and type(value) is int
    }
    defines["EVENT_FIELDS"] = len(_EVENT_FIELDS)
    defines["READ_STATE_WORDS"] = _READ_STATE_WORDS
    defines.update((f"POLICY_{name.upper()}", k) for name, k in _POLICY_IDS.items())
    defines.update((f"OUT_{name.upper()}", k) for k, name in enumerate(_COUNTERS))
    defines.update((f"EVENT_{name.upper()}", k) for k, name in enumerate(_EVENT_FIELDS))
    defines["RECORD_BYTES"] = traceformat.RECORD_BYTES
    defines.update(
        (f"RECORD_{name.upper()}", offset) for name, _, offset in traceformat.RECORD_FIELDS
    )
    defines["KIND_WRITE"] = traceformat.KIND_WRITE
    defines.update(
        (f"CHECK_{name.upper()}", k) for k, name in enumerate(traceformat.RECORD_CHECKS, 1)
    )
    return "".join(f"#define {name} {value}\n" for name, value in defines.items())


def _cache_dirs():
    """Where the compiled library may live, in order of preference. Lazy:
    only a miss in ``__pycache__`` imports the build module, which finds
    the temporary directory."""
    yield os.path.join(os.path.dirname(__file__), "__pycache__")
    from ._kernel_build import temp_cache_dir

    yield temp_cache_dir()


def _usable_dir(path) -> bool:
    """Create directory ``path`` if needed; True when this user owns it,
    nobody else may write there and this user may. A library loaded from it
    runs as this user's code, so nothing is loaded from a directory that
    fails this."""
    try:
        try:
            os.mkdir(path, 0o700)
        except FileExistsError:
            pass
        st = os.stat(path)
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & 0o022 and os.access(path, os.W_OK))


class _BuildError(Exception):
    """The native kernel could not be built or loaded; the message says why."""


class _Array:
    """A ctypes argument type for a pointer to C-contiguous elements of one
    type: a ctypes array of ``ctype``, None for NULL, or a numpy array of
    ``dtype``, checked per call as ``numpy.ctypeslib.ndpointer`` checks it.
    Unlike ``ndpointer``, declaring it needs no numpy."""

    def __init__(self, ctype, dtype: str):
        self.ctype, self.dtype = ctype, dtype

    def from_param(self, obj):
        if obj is None or isinstance(obj, ctypes.Array) and obj._type_ is self.ctype:
            return obj
        if getattr(obj, "dtype", None) != self.dtype:
            raise TypeError(f"array must have data type {self.dtype}")
        if not obj.flags.c_contiguous:
            raise TypeError("array must have flags ['C_CONTIGUOUS']")
        return obj.ctypes


def _bind(path):
    """The library at ``path``, with the kernel's argument types declared;
    arrays are checked for type and contiguity per call. Raises
    AttributeError when a kernel function is missing."""
    lib = ctypes.CDLL(str(path))
    i64 = ctypes.c_int64
    u64s, i64s = _Array(ctypes.c_uint64, "uint64"), _Array(i64, "int64")
    lib.ehcsim_simulate.argtypes = [
        i64, u64s, u64s,
        i64, i64, i64,
        i64, ctypes.c_uint64,
        i64s, i64, i64s, i64s,
        i64s, _Array(ctypes.c_uint8, "uint8"), i64s,
    ]
    lib.ehcsim_next_use.argtypes = [i64, u64s, i64, i64s]
    lib.ehcsim_prediction_error.argtypes = [i64, i64, i64s, u64s, i64, i64, i64s]
    for function in (lib.ehcsim_simulate, lib.ehcsim_next_use, lib.ehcsim_prediction_error):
        function.restype = ctypes.c_int
    lib.ehcsim_read_records.argtypes = [
        i64, ctypes.c_char_p, ctypes.c_uint64, u64s, u64s, u64s, ctypes.POINTER(i64),
    ]
    lib.ehcsim_read_records.restype = ctypes.c_int
    return lib


def _source() -> tuple[str, str]:
    """The C text to compile and the file name of its library."""
    with open(_SOURCE) as fh:
        text = _header() + fh.read()
    digest = blake2b(
        "\0".join((text, *_CFLAGS)).encode(), digest_size=12
    ).hexdigest()
    return text, f"_kernel-{digest}.so"


def _stale_bytecode(directory) -> bool:
    """Whether ``directory`` is where the interpreter reads this package's
    bytecode, and a ``.py`` file of the package has no bytecode there, or
    bytecode older than its source: whether a file that
    :func:`~ehcsim._kernel_build.write_bytecode` writes is missing or stale,
    also for a module no command has imported yet. Takes ``os.listdir``
    and ``os.stat`` only."""
    cached = getattr(sys.modules.get(__package__), "__cached__", None)
    tag = sys.implementation.cache_tag
    if cached is None or tag is None or os.path.dirname(cached) != directory:
        return False  # a temporary directory, or a set sys.pycache_prefix
    package = os.path.dirname(__file__)
    try:
        for entry in os.listdir(package):
            if entry.endswith(".py"):
                pyc = os.path.join(directory, f"{entry[:-3]}.{tag}.pyc")
                if os.stat(pyc).st_mtime_ns < os.stat(os.path.join(package, entry)).st_mtime_ns:
                    return True
    except OSError:  # a module without bytecode, or an unreadable package
        return True
    return False


def _load():
    """Load the cached library, building it first when it is missing or
    unreadable, and write the package's bytecode next to it when that is
    missing or stale; raises :class:`_BuildError`."""
    text, name = _source()
    for directory in _cache_dirs():
        if not _usable_dir(directory):
            continue
        target = os.path.join(directory, name)
        lib = None
        if os.path.isfile(target):
            try:
                lib = _bind(target)
            except (OSError, AttributeError):
                pass  # truncated or foreign: rebuild it below
        if lib is None:
            from ._kernel_build import build

            build(text, target, _COMPILER, _CFLAGS)
            try:
                lib = _bind(target)
            except (OSError, AttributeError) as e:
                raise _BuildError(f"cannot load {target}: {e}") from None
        if _stale_bytecode(directory):
            from ._kernel_build import write_bytecode

            write_bytecode(os.path.dirname(__file__))
        return lib
    raise _BuildError("no private writable cache directory for the compiled kernel")


@functools.cache
def _native():
    """``(kernel library, None)``, or ``(None, reason)`` when it is unavailable."""
    try:
        return _load(), None
    except (_BuildError, OSError) as e:
        return None, str(e)


#: The unavailable ``_native()`` result whose reason stderr has shown.
_announced = None


def unavailable() -> str | None:
    """Why the native kernel cannot run, or None when it can."""
    return _native()[1]


def use_kernel(backend: str, geom: CacheGeometry) -> bool:
    """Whether a run on ``backend`` goes to the native kernel. Raises
    :class:`UsageError` for an unknown backend, or for ``"kernel"`` when the
    kernel is unavailable, and :func:`check_geometry`'s error on any backend.
    ``"auto"`` without the kernel says why in one line on stderr, once per
    failed load; :func:`unavailable` does not, so that a command that fails
    before it simulates prints only its error."""
    global _announced
    if backend not in BACKENDS:
        raise UsageError(f"unknown backend {backend!r} (choose from {', '.join(BACKENDS)})")
    check_geometry(geom)
    if backend == "reference":
        return False
    native = _native()
    if native[0] is not None:
        return True
    if backend == "kernel":
        _library()  # raises with the reason
    if native is not _announced:
        _announced = native
        print(f"ehcsim: native kernel unavailable ({native[1]}); "
              "using the reference engine", file=sys.stderr)
    return False


def _library():
    lib, reason = _native()
    if lib is None:
        raise UsageError(f"kernel backend unavailable: {reason}")
    return lib


def check_geometry(geom: CacheGeometry):
    """``(num_sets, associativity, block_offset_bits)`` as the C kernel
    takes them. ctypes wraps an integer beyond int64_t silently and the
    kernel refuses a table of 2^63 entries or more, so a geometry that
    large raises :class:`GeometryTooLarge`; both backends check this first.
    The offset passes as :attr:`~ehcsim.engine.CacheGeometry.block_shift`."""
    if geom.num_sets * geom.associativity >= 1 << 63:
        raise _too_large(geom)
    return geom.num_sets, geom.associativity, geom.block_shift


def buffer(trace: Trace | Columns | None, geom: CacheGeometry, size: int):
    """An int64 buffer of ``size`` elements for the kernel to fill: for
    :class:`Columns` a ctypes array over anonymous memory, which needs no
    numpy, else (a Trace, or None) an uninitialised numpy array. Either way
    a page takes memory only once the kernel writes to it, where a plain
    ctypes array would zero every page first."""
    try:
        if isinstance(trace, Columns):
            import mmap

            return (ctypes.c_int64 * size).from_buffer(mmap.mmap(-1, max(8 * size, 1)))
        import numpy as np

        return np.empty(size, dtype=np.int64)
    except (ValueError, OverflowError, OSError, MemoryError):  # more than memory holds
        raise _too_large(geom) from None


def _too_large(geom: CacheGeometry) -> GeometryTooLarge:
    return GeometryTooLarge(f"cannot allocate the tables of a cache of "
                            f"{geom.num_sets} sets x {geom.associativity} ways")


class Columns:
    """What the kernel reads of a trace: the ``pc`` and ``addr`` columns as
    ctypes uint64 arrays, and the instruction count. :func:`run` takes it
    where it takes a :class:`~ehcsim.trace.Trace`."""

    __slots__ = ("pc", "addr", "instruction_count")

    def __init__(self, pc, addr, instruction_count: int):
        self.pc, self.addr, self.instruction_count = pc, addr, instruction_count

    def __len__(self) -> int:
        return len(self.addr)


def load_trace(path) -> Columns:
    """The :class:`Columns` of the trace file at ``path``. Its header and
    size are checked as :func:`ehcsim.trace.load_trace` checks them and its
    records in C, in the order of :meth:`ehcsim.trace.Trace.validate`, so a
    defect raises the same :class:`~ehcsim.errors.DataError` with the same
    message. The records, of a regular file or of a pipe, stream through
    one buffer of :data:`_CHUNK_RECORDS` records, with the check state
    carried from chunk to chunk."""
    lib = _library()
    with open(path, "rb") as fh:
        count, instruction_count, stream = traceformat.read_header(fh)
        pc, addr = (ctypes.c_uint64 * count)(), (ctypes.c_uint64 * count)()
        state = (ctypes.c_uint64 * _READ_STATE_WORDS)()
        core = ctypes.c_int64()
        check = 0  # what the checks give no records
        chunk = bytearray(min(count, _CHUNK_RECORDS) * traceformat.RECORD_BYTES)
        buffer, view = (ctypes.c_char * len(chunk)).from_buffer(chunk), memoryview(chunk)
        for start in range(0, count, _CHUNK_RECORDS):
            n = min(_CHUNK_RECORDS, count - start)
            size = n * traceformat.RECORD_BYTES
            # Fewer only if the file shrank since its size was checked.
            if stream.readinto(view[:size]) < size:
                raise traceformat.fewer_records(count)
            check = lib.ehcsim_read_records(n, buffer, instruction_count, pc, addr, state,
                                            ctypes.byref(core))
    if check:
        message = list(traceformat.RECORD_CHECKS.values())[check - 1]
        raise InvalidTrace(message.format(core=core.value))
    return Columns(pc, addr, instruction_count)


def next_use(trace: Trace | Columns, geom: CacheGeometry):
    """:func:`ehcsim.minoracle.compute_next_use` on the kernel, in a
    :func:`buffer`."""
    n = len(trace)
    out = buffer(trace, geom, n)
    if _library().ehcsim_next_use(n, trace.addr, geom.block_shift, out) != 0:
        raise MemoryError("cannot allocate the next-use table")
    return out


def prediction_error(trace: Trace | Columns, geom: CacheGeometry, rows, count: int,
                     by_region: bool) -> list[int]:
    """The prediction-error histogram of the first ``count`` residency rows
    that :func:`run` wrote to ``rows`` for MIN on ``trace``:
    :func:`ehcsim.minoracle.per_region_prediction_error` with
    ``by_region``, else :func:`~ehcsim.minoracle.per_block_prediction_error`."""
    n = len(trace)
    if len(rows) != 3 * n or not 0 <= count <= n:
        raise ValueError(f"rows must hold 3 x {n} entries and count at most {n}")
    hist = (ctypes.c_int64 * params.ERROR_BUCKETS)()
    if _library().ehcsim_prediction_error(count, n, rows, trace.addr, geom.block_shift,
                                          1 if by_region else 0, hist) != 0:
        raise MemoryError("cannot allocate the prediction key table")
    return list(hist)


def check_policy(name: str) -> None:
    """Raise :class:`UnknownPolicy` unless ``name`` is a built-in policy."""
    if name not in params.POLICY_NAMES:
        raise UnknownPolicy(
            f"unknown policy {name!r} (choose from {', '.join(params.POLICY_NAMES)})"
        )


def check_outputs(trace, name: str, geom: CacheGeometry, next_use, rows, ranks) -> None:
    """The argument checks of :func:`run` on either backend: a ``name``
    neither a built-in policy's nor ``"min"`` raises :class:`UnknownPolicy`;
    MIN without ``next_use``, ``rows`` for another policy, ``ranks``
    without ``next_use`` or a column of another size raises ValueError."""
    n = len(trace)
    if name != "min":
        check_policy(name)
    elif next_use is None:
        raise ValueError("MIN takes a next_use column")
    if rows is not None and name != "min":
        raise ValueError(f"only MIN writes residency rows, not {name}")
    if ranks is not None and next_use is None:
        raise ValueError("ranking victims takes a next_use column")
    for what, column, size in (("next_use", next_use, n), ("rows", rows, 3 * n),
                               ("ranks", ranks, geom.associativity + 1)):
        if column is not None and len(column) != size:
            raise ValueError(f"{what} must hold {size} entries, not {len(column)}")


def check_rows(stats: SimStats, count: int, hits: int) -> None:
    """Raise InternalInvariantError unless MIN's residency rows, ``count``
    of them holding ``hits`` hits in all, are one per fill, ``misses -
    bypasses``, and hold every hit of its run, ``stats``."""
    fills = stats.misses - stats.per_policy["bypasses"]
    if count != fills or hits != stats.hits:
        raise InternalInvariantError(f"MIN wrote {count} residency rows with {hits} hits "
                                     f"for {fills} fills and {stats.hits} hits")


def run(
    trace: Trace | Columns,
    name: str,
    geom: CacheGeometry,
    seed: int,
    record_events: bool = False,
    next_use=None,
    bypass: bool = False,
    rows=None,
    ranks=None,
):
    """Kernel-path counterpart of :func:`ehcsim.engine.simulate`.

    ``name`` ``"min"`` runs Belady's MIN over ``next_use``, the column of
    :func:`next_use`, with ``bypass``, as :class:`ehcsim.minoracle.MinPolicy`
    does. Given ``rows``, a :func:`buffer` of 3 x ``len(trace)`` entries, it
    writes one residency row per fill there, ``misses - bypasses`` rows in
    completion order: fill positions from entry 0, end positions from entry
    ``len(trace)`` and hits from entry ``2 * len(trace)``. Any policy given
    ``next_use`` and ``ranks``, a buffer of associativity + 1 entries,
    counts there the rank of every victim, the histogram
    :func:`ehcsim.minoracle.victim_quality` makes of the run's event log.
    :func:`check_outputs` checks the arguments. Counters that fail
    :meth:`~ehcsim.values.SimStats.check`, and rows that fail
    :func:`check_rows`, raise InternalInvariantError.
    The hit flags are a uint8 array for a :class:`~ehcsim.trace.Trace`, as
    the reference engine returns them, and a bytearray for
    :class:`Columns`, so that a run over those needs no numpy."""
    lib = _library()
    n = len(trace)
    num_sets, assoc, block_bits = check_geometry(geom)
    check_outputs(trace, name, geom, next_use, rows, ranks)
    hit_flags = bytearray(n)
    out = (ctypes.c_int64 * len(_COUNTERS))()
    # Room for an event row at every access, in numpy for the EventLog.
    ev_width = len(_EVENT_FIELDS) + assoc
    events = buffer(None, geom, n * ev_width) if record_events else None

    status = lib.ehcsim_simulate(
        n, trace.addr, trace.pc,
        num_sets, assoc, block_bits,
        _POLICY_IDS[name], seed & (2**64 - 1),
        next_use, 1 if bypass else 0, rows, ranks,
        events, (ctypes.c_uint8 * n).from_buffer(hit_flags), out,
    )
    if status != 0:
        raise _too_large(geom)

    counts = dict(zip(_COUNTERS, out))
    stats = SimStats(**{k: counts[k] for k in _STATS_FIELDS})
    stats.per_policy.update((k, counts[k]) for k in _PER_POLICY.get(name, ()))
    stats.check(n)
    if rows is not None:
        check_rows(stats, counts["rows"], counts["row_hits"])
    log = None
    if record_events:
        log = _event_log(events, counts["replacements_total"] + counts["bypasses"], ev_width)
    if not isinstance(trace, Columns):
        import numpy as np

        hit_flags = np.frombuffer(hit_flags, dtype=np.uint8)
    return stats, log, hit_flags


def _event_log(events: np.ndarray, count: int, width: int) -> EventLog:
    """The :class:`EventLog` of the first ``count`` event rows in ``events``."""
    from .engine import EventLog

    rows = events[:count * width].reshape(count, width)
    fields = len(_EVENT_FIELDS)
    return EventLog(*rows[:, :fields].T, rows[:, fields:])
