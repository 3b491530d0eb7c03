"""The simulator's value types: the cache geometry and a run's counters.

Both execution paths use them, so they live apart from the reference
engine (:mod:`ehcsim.engine`, which re-exports them): a run on the native
kernel imports this module and not the engine.
"""

from __future__ import annotations

from .errors import InternalInvariantError


class Record:
    """Base of the simulator's value types (the geometry and the stats here,
    :class:`~ehcsim.trace.GeneratorSpec`): the fields are the
    ``__slots__``, set by ``_init`` and read-only after it unless a
    subclass allows assignment, and two instances of one class are equal,
    and hash alike, when every field is."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class CacheGeometry(Record):
    """Cache shape: number of sets, ways per set, and block size.

    Defaults give the 2 MB, 16-way, 64 B-block configuration.
    """

    __slots__ = ("num_sets", "associativity", "block_offset_bits")

    def __init__(self, num_sets: int = 2048, associativity: int = 16,
                 block_offset_bits: int = 6):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a positive power of two")
        if associativity < 1:
            raise ValueError("associativity must be positive")
        if block_offset_bits < 1:
            raise ValueError("block_offset_bits must be positive")
        self._init(num_sets, associativity, block_offset_bits)

    @property
    def set_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    @property
    def block_shift(self) -> int:
        """The shift from an address to its block: an offset of 64 bits or
        more puts every address in block 0, as a shift by 64 does."""
        return min(self.block_offset_bits, 64)

    def set_index(self, addr: int) -> int:
        return (addr >> self.block_offset_bits) & (self.num_sets - 1)

    def tag(self, addr: int) -> int:
        return addr >> (self.block_offset_bits + self.set_bits)

    def block_addr(self, set_index: int, tag: int) -> int:
        """Reconstruct the byte address of a block's first byte."""
        return (tag << (self.block_offset_bits + self.set_bits)) | (
            set_index << self.block_offset_bits
        )


DEFAULT_GEOMETRY = CacheGeometry()


class SimStats(Record):
    """Counters produced by one simulation run. Mutable, so unhashable."""

    __slots__ = ("accesses", "hits", "misses", "replacements_total",
                 "replacements_no_averse", "per_policy")

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, accesses: int = 0, hits: int = 0, misses: int = 0,
                 replacements_total: int = 0, replacements_no_averse: int = 0,
                 per_policy: dict | None = None):
        self._init(accesses, hits, misses, replacements_total, replacements_no_averse,
                   {} if per_policy is None else per_policy)

    def check(self, accesses: int | None = None) -> None:
        """Raise :class:`InternalInvariantError` unless the counters agree,
        and, given ``accesses``, unless the run counted that many."""
        if accesses is not None and self.accesses != accesses:
            raise InternalInvariantError(f"{self.accesses} accesses counted of {accesses}")
        if self.accesses != self.hits + self.misses:
            raise InternalInvariantError("accesses != hits + misses")
        if not (self.replacements_no_averse <= self.replacements_total <= self.misses):
            raise InternalInvariantError("replacement counters out of order")
