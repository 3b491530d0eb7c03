"""Exception hierarchy shared across the simulator.

Three buckets matter for the CLI exit codes: usage errors (bad arguments,
unknown policy names), data errors (unreadable trace files), and internal
invariant violations that indicate a bug rather than bad input.
"""


class EhcSimError(Exception):
    """Base class for all simulator errors."""


class UsageError(EhcSimError):
    """Bad request: invalid parameters, unknown names, empty inputs."""


class DataError(EhcSimError):
    """Malformed or unreadable input data (trace files)."""


class InternalInvariantError(EhcSimError):
    """A simulator invariant was violated; this is a bug, not bad input."""


# --- trace file format ---

class BadMagic(DataError):
    """Input does not start with the trace-file magic bytes."""


class UnsupportedVersion(DataError):
    """Trace file declares a format version this build cannot read."""


class Truncated(DataError):
    """Trace header promises more records than the payload contains."""


class TrailingBytes(DataError):
    """Trace file holds bytes after the records its header declares."""


class InvalidTrace(DataError, ValueError):
    """Trace contents break an invariant (access kind, seq order)."""


# --- generators / interleaving ---

class InvalidSpec(UsageError):
    """Synthetic generator parameters are out of range."""


class TooManyCores(UsageError):
    """More input traces than the 8-bit core id can address."""


# --- simulation / analysis ---

class VictimOutOfRange(InternalInvariantError):
    """A policy returned a way index outside the set."""


class UnknownPolicy(UsageError):
    """Requested policy name is not registered."""


class ZeroInstructions(UsageError):
    """MPKI is undefined for a trace with no instructions."""


class GeometryTooLarge(UsageError, MemoryError):
    """The native kernel cannot allocate the tables of a cache geometry.
    Also a MemoryError, so callers that catch running out of memory catch
    it too."""


class MissingEventLog(UsageError):
    """Victim-quality analysis needs a run recorded with event logging."""
