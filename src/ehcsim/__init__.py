"""Trace-driven last-level-cache simulator with expected-hit-count replacement.

Implements an LLC replacement-policy lab: classic baselines (LRU, the RRIP
family, SHiP), the MIN-emulation-driven Hawkeye policy, and EHC — Hawkeye
extended with a per-block expected-further-hits countdown seeded from
per-region residency history — plus offline Belady MIN oracles and the
analyses built on them.
"""

from .analysis import (
    Report,
    analyze,
    compare,
    mpki,
    mpki_reduction,
    no_averse_fraction,
    run_report,
)
from .belady import EhcPolicy, HawkeyePolicy
from .engine import (
    BYPASS,
    CacheGeometry,
    DEFAULT_GEOMETRY,
    EFH_MAX,
    RRPV_MAX,
    EventLog,
    ReplacementEvent,
    ReplacementPolicy,
    SimStats,
    simulate,
)
from .errors import (
    BadMagic,
    DataError,
    EhcSimError,
    InternalInvariantError,
    InvalidSpec,
    InvalidTrace,
    MissingEventLog,
    TooManyCores,
    TrailingBytes,
    Truncated,
    UnknownPolicy,
    UnsupportedVersion,
    UsageError,
    ZeroInstructions,
)
from .minoracle import (
    NO_NEXT_USE,
    ResidencyLog,
    compute_next_use,
    mean_rank,
    per_block_prediction_error,
    per_region_prediction_error,
    simulate_min,
    victim_quality,
)
from .policies import BrripPolicy, DrripPolicy, LruPolicy, ShipPolicy, SrripPolicy
from .runner import POLICY_NAMES, make_policy, run_policy
from .sampler import (
    MinDecision,
    MinSampler,
    PcCounterTable,
    RegionHitTable,
    SampledSetHistory,
    is_sampled_set,
)
from .trace import (
    GENERATOR_KINDS,
    GeneratorSpec,
    Trace,
    gen_synthetic,
    interleave,
    load_trace,
    read_trace,
    save_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BYPASS",
    "BadMagic",
    "BrripPolicy",
    "CacheGeometry",
    "DEFAULT_GEOMETRY",
    "DataError",
    "DrripPolicy",
    "EFH_MAX",
    "EhcPolicy",
    "EhcSimError",
    "EventLog",
    "GENERATOR_KINDS",
    "GeneratorSpec",
    "HawkeyePolicy",
    "InternalInvariantError",
    "InvalidSpec",
    "InvalidTrace",
    "LruPolicy",
    "MinDecision",
    "MinSampler",
    "MissingEventLog",
    "NO_NEXT_USE",
    "PcCounterTable",
    "POLICY_NAMES",
    "RRPV_MAX",
    "RegionHitTable",
    "ReplacementEvent",
    "ReplacementPolicy",
    "Report",
    "ResidencyLog",
    "SampledSetHistory",
    "ShipPolicy",
    "SimStats",
    "SrripPolicy",
    "TooManyCores",
    "Trace",
    "TrailingBytes",
    "Truncated",
    "UnknownPolicy",
    "UnsupportedVersion",
    "UsageError",
    "ZeroInstructions",
    "analyze",
    "compare",
    "compute_next_use",
    "gen_synthetic",
    "interleave",
    "is_sampled_set",
    "load_trace",
    "make_policy",
    "mean_rank",
    "mpki",
    "mpki_reduction",
    "no_averse_fraction",
    "per_block_prediction_error",
    "per_region_prediction_error",
    "read_trace",
    "run_policy",
    "run_report",
    "save_trace",
    "simulate",
    "simulate_min",
    "victim_quality",
    "write_trace",
]
