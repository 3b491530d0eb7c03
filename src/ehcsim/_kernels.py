"""The native kernel: the fast backend that :func:`ehcsim.runner.pick_backend`
returns, whose calls :mod:`ehcsim.minoracle` answers on the reference engine,
and a trace loader for it.

``_kernel.c`` exports four functions, each reproducing its reference bit
for bit, which the test suite enforces:

- ``ehcsim_simulate`` (:func:`run`) is one flat loop per trace that covers
  the built-in policies and Belady's MIN, dispatched on a policy id, as the
  reference engine runs them. MIN reads a next-use column and writes a
  residency row per fill; a built-in policy given that column ranks its
  victims as :func:`ehcsim.minoracle.victim_quality` does. It takes the
  geometry as the number of sets, ways and the block offset, and keys
  lines and sampled-set slots by block number, not by tag.
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
one, and none needs the reference engine. On first use this module
prepends a ``#define`` block generated from :mod:`ehcsim.params` and
:mod:`ehcsim.traceformat` to the source and loads the library of that
text, a CPython extension module, with
:class:`importlib.machinery.ExtensionFileLoader`. Its functions take each
array as an object with the buffer protocol (a memoryview over anonymous
memory, a bytearray or a numpy array) and check its element type, C order,
size and, for an output, writability per call, raising TypeError or
ValueError before the kernel runs. The library lives in ``__pycache__``
next to this file, or, when that is not private to this user, in a
per-user directory under the system temporary directory; nothing is
loaded from a directory another user owns or may write to. Its name is a
digest of the header, the source and the flags, so an edit to either
builds a new one, followed by the interpreter's extension suffix
(``importlib.machinery.EXTENSION_SUFFIXES[0]``), so interpreters that share
the directory neither load nor delete each other's. Finding and loading a
cached library takes ``os`` and ``importlib.machinery`` only; when it is
missing or does not load, :mod:`ehcsim._kernel_build` compiles it with the
system C compiler (``cc -O2 -shared -fPIC`` and Python's include
directory) and deletes the libraries of other digests in its directory.

The package's bytecode is the cache's second artifact. When the library
sits in the ``__pycache__`` the interpreter reads the package's bytecode
from, and a ``.py`` file of the package, imported yet or not, has no
bytecode there or bytecode older than its source (``os.listdir`` and
``os.stat`` tell), :mod:`ehcsim._kernel_build` writes checked-hash
bytecode for every module of the package, so later processes compile none
of them, even under ``PYTHONDONTWRITEBYTECODE``.
Elsewhere (the temporary directory, a set ``sys.pycache_prefix``) nothing
is written, and a write that fails is skipped silently.

The backend's three calls allocate what the kernel writes. With
``record_events`` it writes each miss in a full set into an
:func:`event_rows` table as one row of trace positions in the layout
:data:`_EVENT_FIELDS` states, as the engine does, and on both the
:class:`EventLog` is a view of the rows written, which its CSV dump
formats :data:`_CHUNK_EVENTS` rows at a time; next use, MIN's residency
rows in the layout :data:`_ROW_FIELDS` states, and the victim ranks each go
to a :func:`buffer`. Outputs a run does not make are None.
When no compiler is found or the build fails (a host without Python's C
headers included), :func:`use_kernel` is False
for ``backend="auto"``, which picks the reference backend, and one line on
stderr per process says why.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

from . import params, traceformat
from .errors import (GeometryTooLarge, InternalInvariantError, InvalidTrace, UnknownPolicy,
                     UsageError)
from .values import CacheGeometry, SimStats

TYPE_CHECKING = False  # typing's constant; a kernel run never imports typing
if TYPE_CHECKING:
    import numpy as np

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
    "optgen_hit", "optgen_miss", "bypasses", "rows", "row_hits", "sampled",
)
_STATS_FIELDS = _COUNTERS[:5]
_OPTGEN = ("optgen_cold", "optgen_hit", "optgen_miss")
_PER_POLICY = {
    "brrip": ("long_inserts",),
    "drrip": ("psel",),
    "hawkeye": _OPTGEN,
    "ehc": _OPTGEN,
    "min": ("bypasses",),
}

#: Leading fields of an event row, the one statement of its layout. The
#: trace position of the latest access to every way's resident follows, as
#: it was before the fill.
_EVENT_FIELDS = ("index", "victim_way", "no_averse")
#: The fields of a residency row, MIN's record of one fill, the one statement
#: of its layout: the fill position, the position of the miss that evicted
#: the block (the trace length if it stayed to the end) and the stay's hits.
_ROW_FIELDS = ("fill", "end", "hits")

#: The words of the state ``ehcsim_read_records`` carries between chunks:
#: records done, the largest seq and kind, and per core its last seq and
#: whether its seq decreased.
_READ_STATE_WORDS = 3 + 2 * 256
#: Records per read when :func:`load_trace` streams a trace: 104 KB.
_CHUNK_RECORDS = 4096
#: Events per chunk that :meth:`EventLog.write_csv` gathers and formats.
_CHUNK_EVENTS = 4096

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
#: The module's name; ``_kernel.c`` defines ``PyInit__kernel`` for it.
_MODULE = f"{__package__}._kernel"
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
    defines["READ_STATE_WORDS"] = _READ_STATE_WORDS
    defines.update((f"POLICY_{name.upper()}", k) for name, k in _POLICY_IDS.items())
    defines["COUNTERS"] = len(_COUNTERS)
    defines.update((f"OUT_{name.upper()}", k) for k, name in enumerate(_COUNTERS))
    for row, fields in (("EVENT", _EVENT_FIELDS), ("ROW", _ROW_FIELDS)):
        defines[f"{row}_FIELDS"] = len(fields)
        defines.update((f"{row}_{name.upper()}", k) for k, name in enumerate(fields))
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


def _bind(path):
    """The kernel module in the library at ``path``. Raises ImportError when
    the file is no loadable extension module of this interpreter."""
    loader = ExtensionFileLoader(_MODULE, path)
    module = loader.create_module(ModuleSpec(_MODULE, loader, origin=path))
    loader.exec_module(module)
    module.__file__ = path
    return module


def _source() -> tuple[str, str]:
    """The C text to compile and the file name of its library."""
    with open(_SOURCE) as fh:
        text = _header() + fh.read()
    digest = blake2b(
        "\0".join((text, *_CFLAGS)).encode(), digest_size=12
    ).hexdigest()
    return text, f"_kernel-{digest}{EXTENSION_SUFFIXES[0]}"


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
            except ImportError:
                pass  # truncated or foreign: rebuild it below
        if lib is None:
            from ._kernel_build import build

            build(text, target, _COMPILER, _CFLAGS)
            try:
                lib = _bind(target)
            except ImportError as e:
                raise _BuildError(f"cannot load {target}: {e}") from None
        if _stale_bytecode(directory):
            from ._kernel_build import write_bytecode

            write_bytecode(os.path.dirname(__file__))
        return lib
    raise _BuildError("no private writable cache directory for the compiled kernel")


@functools.cache
def _native():
    """``(kernel module, None)``, or ``(None, reason)`` when it is unavailable."""
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
    takes them, as int64_t values. The kernel refuses a table of 2^63
    entries or more, so a geometry that large raises
    :class:`GeometryTooLarge`; both backends check this first.
    The offset passes as :attr:`~ehcsim.engine.CacheGeometry.block_shift`."""
    if geom.num_sets * geom.associativity >= 1 << 63:
        raise _too_large(geom)
    return geom.num_sets, geom.associativity, geom.block_shift


def _words(size: int, fmt: str) -> memoryview:
    """``size`` zeroed 8-byte elements of struct format ``fmt``, in a
    bytearray."""
    return memoryview(bytearray(8 * size)).cast(fmt)


def buffer(trace: Trace | Columns | None, geom: CacheGeometry, size: int):
    """A zeroed int64 buffer of ``size`` elements for the kernel to fill:
    for :class:`Columns` a memoryview over anonymous memory, which needs no
    numpy, else (a Trace, or None) a numpy array. Either way a page takes
    memory only once the kernel writes to it, where a bytearray would zero
    every page first. A mapping cannot be empty, so it holds one element
    at least."""
    try:
        if isinstance(trace, Columns):
            import mmap

            return memoryview(mmap.mmap(-1, 8 * max(size, 1))).cast("q")[:size]
        import numpy as np

        return np.zeros(size, dtype=np.int64)
    except (ValueError, OverflowError, OSError, MemoryError):  # more than memory holds
        raise _too_large(geom) from None


def _too_large(geom: CacheGeometry) -> GeometryTooLarge:
    return GeometryTooLarge(f"cannot allocate the tables of a cache of "
                            f"{geom.num_sets} sets x {geom.associativity} ways")


class Columns:
    """What the kernel reads of a trace: the ``pc`` and ``addr`` columns as
    uint64 memoryviews, and the instruction count. :func:`run` takes it
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
    carried from chunk to chunk. The reader writes every element of the
    columns, so they are :func:`_words`: lazily zeroed memory would save no
    page, and its ``mmap`` import would cost more than the zeroing."""
    lib = _library()
    with open(path, "rb") as fh:
        count, instruction_count, stream = traceformat.read_header(fh)
        pc, addr, state = _words(count, "Q"), _words(count, "Q"), _words(_READ_STATE_WORDS, "Q")
        check = core = 0  # what the checks give no records
        chunk = bytearray(min(count, _CHUNK_RECORDS) * traceformat.RECORD_BYTES)
        view = memoryview(chunk)
        for start in range(0, count, _CHUNK_RECORDS):
            n = min(_CHUNK_RECORDS, count - start)
            size = n * traceformat.RECORD_BYTES
            # Fewer only if the file shrank since its size was checked.
            if stream.readinto(view[:size]) < size:
                raise traceformat.fewer_records(count)
            check, core = lib.ehcsim_read_records(n, chunk, instruction_count, pc, addr, state)
    if check:
        message = list(traceformat.RECORD_CHECKS.values())[check - 1]
        raise InvalidTrace(message.format(core=core))
    return Columns(pc, addr, instruction_count)


def next_use(trace: Trace | Columns, geom: CacheGeometry):
    """:func:`ehcsim.minoracle.compute_next_use` on the kernel, in a
    :func:`buffer`."""
    n = len(trace)
    out = buffer(trace, geom, n)
    if _library().ehcsim_next_use(n, trace.addr, geom.block_shift, out) != 0:
        raise MemoryError("cannot allocate the next-use table")
    return out


def prediction_error(trace: Trace | Columns, geom: CacheGeometry, rows,
                     by_region: bool) -> list[int]:
    """The prediction-error histogram of the residency rows that :func:`run`
    returned for MIN on ``trace``:
    :func:`ehcsim.minoracle.per_region_prediction_error` with
    ``by_region``, else :func:`~ehcsim.minoracle.per_block_prediction_error`.
    A row that fills outside the trace raises :func:`row_outside`'s error."""
    hist = _words(params.ERROR_BUCKETS, "q")
    status = _library().ehcsim_prediction_error(len(rows) // len(_ROW_FIELDS), len(trace), rows,
                                                trace.addr, geom.block_shift,
                                                1 if by_region else 0, hist)
    if status < 0:
        raise MemoryError("cannot allocate the prediction key table")
    if status:
        raise row_outside(rows, status - 1, len(trace))
    return hist.tolist()


def row_outside(rows, k: int, n: int) -> ValueError:
    """The error of :func:`prediction_error` on either backend for row ``k``
    of ``rows``, whose fill position lies outside a trace of ``n`` accesses."""
    fill = rows[k * len(_ROW_FIELDS) + _ROW_FIELDS.index("fill")]
    return ValueError(f"residency row {k} fills at position {fill}, "
                      f"outside the trace of {n} accesses")


def check_policy(name: str) -> None:
    """Raise :class:`UnknownPolicy` unless ``name`` is a built-in policy."""
    if name not in params.POLICY_NAMES:
        raise UnknownPolicy(
            f"unknown policy {name!r} (choose from {', '.join(params.POLICY_NAMES)})"
        )


def check_outputs(trace, name: str, geom: CacheGeometry, next_use, bypass: bool, rows: bool):
    """The argument checks of :func:`run` on either backend: a ``name``
    neither a built-in policy's nor ``"min"`` raises :class:`UnknownPolicy`;
    MIN without ``next_use``, ``bypass`` or ``rows`` for another policy, or
    a ``next_use`` of another length than the trace raises ValueError.
    Then the :func:`buffer` of each output the run makes, or None: MIN's
    rows when asked for, and the victim ranks of a built-in policy given
    ``next_use``. Allocated before the run, they raise its error first."""
    if name != "min":
        check_policy(name)
    elif next_use is None:
        raise ValueError("MIN takes a next_use column")
    if bypass and name != "min":
        raise ValueError(f"only MIN bypasses, not {name}")
    if rows and name != "min":
        raise ValueError(f"only MIN writes residency rows, not {name}")
    if next_use is not None and len(next_use) != len(trace):
        raise ValueError(f"next_use must hold {len(trace)} entries, not {len(next_use)}")
    ranked = next_use is not None and name != "min"
    return (buffer(trace, geom, len(_ROW_FIELDS) * len(trace)) if rows else None,
            buffer(trace, geom, geom.associativity + 1) if ranked else None)


def check_result(stats: SimStats, n: int, sampled: int, rows, row_hits: int, ranks) -> None:
    """The result checks of :func:`run` on either backend: raise
    InternalInvariantError unless ``stats`` of ``n`` accesses pass
    :meth:`~ehcsim.values.SimStats.check`, OPTgen decided each of the
    ``sampled`` accesses to sampled sets once (cold, hit or miss), MIN's
    ``rows`` are one per fill and hold ``row_hits``, every hit, and the
    ``ranks`` count every replacement once."""
    stats.check(n)
    decided = sum(stats.per_policy.get(k, 0) for k in _OPTGEN)
    if decided != sampled:
        raise InternalInvariantError(f"OPTgen decided {decided} accesses "
                                     f"of {sampled} to sampled sets")
    fills = stats.misses - stats.per_policy.get("bypasses", 0)
    count = None if rows is None else len(rows) // len(_ROW_FIELDS)
    if rows is not None and (count, row_hits) != (fills, stats.hits):
        raise InternalInvariantError(f"MIN wrote {count} residency rows with {row_hits} hits "
                                     f"for {fills} fills and {stats.hits} hits")
    if ranks is not None and sum(ranks) != stats.replacements_total:
        raise InternalInvariantError(f"victim ranks count {sum(ranks)} victims of "
                                     f"{stats.replacements_total}")


def run(
    trace: Trace | Columns,
    name: str,
    geom: CacheGeometry,
    seed: int,
    record_events: bool = False,
    next_use=None,
    bypass: bool = False,
    rows: bool = False,
):
    """Kernel-path counterpart of :func:`ehcsim.engine.simulate`; returns
    ``(stats, events, hit_flags, rows, ranks)``.

    ``name`` ``"min"`` runs Belady's MIN over ``next_use``, the column of
    :func:`next_use`, with ``bypass``, as :class:`ehcsim.minoracle.MinPolicy`
    does. With ``rows`` it returns its residency rows, one per fill in
    completion order, each :data:`_ROW_FIELDS` in turn: the rows written,
    a prefix of a :func:`buffer`, which :func:`prediction_error` takes as
    it is.
    A built-in policy given ``next_use`` returns the rank of every victim
    as a list of associativity + 1 counts, the histogram
    :func:`ehcsim.minoracle.victim_quality` makes of the run's event log;
    MIN reads that column as its oracle and ranks nothing. Rows and ranks
    not made are None. :func:`check_outputs` checks the arguments, and
    results that fail :func:`check_result` raise InternalInvariantError.
    The hit flags are a uint8 array for a :class:`~ehcsim.trace.Trace`, as
    the reference engine returns them, and a bytearray for
    :class:`Columns`, so that a run over those needs no numpy."""
    lib = _library()
    n = len(trace)
    num_sets, assoc, block_bits = check_geometry(geom)
    rows, ranks = check_outputs(trace, name, geom, next_use, bypass, rows)
    hit_flags = bytearray(n)
    out = _words(len(_COUNTERS), "q")
    events = event_rows(trace, geom) if record_events else None

    status = lib.ehcsim_simulate(
        n, trace.addr, trace.pc,
        num_sets, assoc, block_bits,
        _POLICY_IDS[name], seed & (2**64 - 1),
        next_use, 1 if bypass else 0, rows, ranks,
        events, hit_flags, out,
    )
    if status != 0:
        raise _too_large(geom)

    counts = dict(zip(_COUNTERS, out))
    stats = SimStats(**{k: counts[k] for k in _STATS_FIELDS})
    stats.per_policy.update((k, counts[k]) for k in _PER_POLICY.get(name, ()))
    if rows is not None:
        rows = rows[:len(_ROW_FIELDS) * counts["rows"]]
    if ranks is not None:
        ranks = [int(r) for r in ranks]
    check_result(stats, n, counts["sampled"], rows, counts["row_hits"], ranks)
    if record_events:
        events = EventLog(events[:counts["replacements_total"] + counts["bypasses"]])
    if not isinstance(trace, Columns):
        import numpy as np

        hit_flags = np.frombuffer(hit_flags, dtype=np.uint8)
    return stats, events, hit_flags, rows, ranks


def event_rows(trace: Trace | Columns, geom: CacheGeometry) -> np.ndarray:
    """A numpy :func:`buffer` of shape ``(rows, len(_EVENT_FIELDS) +
    associativity)`` with room for an event row per access of ``trace``,
    and for one at least, so that an empty trace checks the width."""
    width = len(_EVENT_FIELDS) + geom.associativity
    return buffer(None, geom, max(len(trace), 1) * width).reshape(-1, width)


class EventLog:
    """Replacement decisions, one row per full-set miss, bypasses included,
    in trace positions of the trace they were recorded on: a view of
    ``table``, the first rows of an :func:`event_rows` table, which both
    loops write, or any int64 array of that width.

    Its columns are views of the table, but for ``no_averse``: ``index``
    (int64) is the position of the missing access, ``victim_way`` (int64)
    the way it replaced or :data:`~ehcsim.params.BYPASS`, ``no_averse``
    (bool) as ``choose_victim`` reported it, and ``resident_pos`` (int64,
    shape ``(len, associativity)``) the position of the latest access to
    every way's resident before the fill. A set, an address or a next use
    is a gather from the trace at these positions.
    """

    __slots__ = ("index", "victim_way", "no_averse", "resident_pos")

    def __init__(self, table):
        fields = dict(zip(_EVENT_FIELDS, table.T))
        self.index = fields["index"]
        self.victim_way = fields["victim_way"]
        self.no_averse = fields["no_averse"] != 0
        self.resident_pos = table[:, len(_EVENT_FIELDS):]

    def __len__(self) -> int:
        return len(self.index)

    def write_csv(self, path, trace: Trace | Columns, geom: CacheGeometry) -> None:
        """One CSV row per event: its position and set, the victim way, the
        no-averse flag, and the block-aligned addresses of the incoming
        block and of every resident, gathered from the address column of
        ``trace``, a :class:`~ehcsim.trace.Trace` or :class:`Columns`, at
        the logged positions. It gathers and formats :data:`_CHUNK_EVENTS`
        rows at a time, so the dump needs one chunk's memory beyond the log
        and the trace. Lines end in CRLF, as ``csv.writer`` ends them."""
        import numpy as np

        shift = np.uint64(geom.block_shift)
        set_mask = np.uint64(geom.num_sets - 1)
        addr = np.frombuffer(trace.addr, dtype=np.uint64)
        row = "%d,%d,%s,%d" + ",0x%x" * (geom.associativity + 1) + "\r\n"
        header = ["index", "set", "victim_way", "no_averse", "incoming",
                  *(f"resident_{w}" for w in range(geom.associativity))]
        with open(path, "w", newline="") as f:
            f.write(",".join(header) + "\r\n")
            for start in range(0, len(self), _CHUNK_EVENTS):
                chunk = slice(start, start + _CHUNK_EVENTS)
                index = self.index[chunk]
                blocks = addr[index] >> shift
                columns = (
                    index, blocks & set_mask, self.victim_way[chunk], self.no_averse[chunk],
                    blocks << shift, addr[self.resident_pos[chunk]] >> shift << shift,
                )
                f.write("".join([
                    row % (i, si, "bypass" if way == params.BYPASS else way, no_averse,
                           incoming, *residents)
                    for i, si, way, no_averse, incoming, residents
                    in zip(*(column.tolist() for column in columns))
                ]))
