"""Trace-driven last-level-cache simulator with expected-hit-count replacement.

Implements an LLC replacement-policy lab: classic baselines (LRU, the RRIP
family, SHiP), the MIN-emulation-driven Hawkeye policy, and EHC — Hawkeye
extended with a per-block expected-further-hits countdown seeded from
per-region residency history — plus offline Belady MIN oracles and the
analyses built on them.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a process pays only
for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_MODULES = {
    "analysis": (
        "Report", "analyze", "compare", "mean_rank", "mpki", "mpki_reduction",
        "no_averse_fraction", "run_report",
    ),
    "belady": ("EhcPolicy", "HawkeyePolicy"),
    "engine": ("BYPASS", "EFH_MAX", "EventLog", "RRPV_MAX", "ReplacementPolicy", "simulate"),
    "errors": (
        "BadMagic", "DataError", "EhcSimError", "InternalInvariantError", "InvalidSpec",
        "InvalidTrace", "MissingEventLog", "TooManyCores", "TrailingBytes", "Truncated",
        "UnknownPolicy", "UnsupportedVersion", "UsageError", "ZeroInstructions",
    ),
    "minoracle": (
        "NO_NEXT_USE", "ResidencyLog", "compute_next_use", "per_block_prediction_error",
        "per_region_prediction_error", "simulate_min", "victim_quality",
    ),
    "policies": ("BrripPolicy", "DrripPolicy", "LruPolicy", "ShipPolicy", "SrripPolicy"),
    "runner": ("POLICY_NAMES", "make_policy", "run_policy"),
    "sampler": (
        "MinDecision", "MinSampler", "PcCounterTable", "RegionHitTable",
        "SampledSetHistory", "is_sampled_set",
    ),
    "trace": (
        "GeneratorSpec", "Trace", "gen_synthetic", "interleave", "load_trace", "read_trace",
        "save_trace", "write_trace",
    ),
    "traceformat": ("GENERATOR_KINDS",),
    "values": ("CacheGeometry", "DEFAULT_GEOMETRY", "SimStats"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
