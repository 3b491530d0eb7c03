"""Policy registry and the single entry point for running a simulation.

``run_policy`` picks between the two execution paths: the native kernel
(fast; stats, hit flags and replacement events) and the reference engine
(slower, but supports per-access invariant checking and runs without a C
compiler). ``backend="auto"`` uses the kernel unless ``check`` is set or the
kernel could not be built. Arbitrary policy objects run on
:func:`ehcsim.engine.simulate` directly.
"""

from __future__ import annotations

from . import _kernels
from .belady import EhcPolicy, HawkeyePolicy
from .engine import CacheGeometry, DEFAULT_GEOMETRY, simulate
from .errors import UnknownPolicy, UsageError
from .policies import BrripPolicy, DrripPolicy, LruPolicy, ShipPolicy, SrripPolicy
from .trace import Trace

POLICY_CLASSES = {
    "lru": LruPolicy,
    "srrip": SrripPolicy,
    "brrip": BrripPolicy,
    "drrip": DrripPolicy,
    "ship": ShipPolicy,
    "hawkeye": HawkeyePolicy,
    "ehc": EhcPolicy,
}

POLICY_NAMES = tuple(POLICY_CLASSES)

DEFAULT_SEED = 42

BACKENDS = ("auto", "kernel", "reference")


def make_policy(
    name: str,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    seed: int = DEFAULT_SEED,
    ehc_fixed_init: int | None = None,
    aging: bool = True,
):
    try:
        cls = POLICY_CLASSES[name]
    except KeyError:
        raise UnknownPolicy(
            f"unknown policy {name!r} (choose from {', '.join(POLICY_NAMES)})"
        ) from None
    if cls is EhcPolicy:
        return cls(geom, seed=seed, aging=aging, fixed_init=ehc_fixed_init)
    if cls is HawkeyePolicy:
        return cls(geom, seed=seed, aging=aging)
    return cls(geom, seed=seed)


def run_policy(
    trace: Trace,
    name: str,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    seed: int = DEFAULT_SEED,
    record_events: bool = False,
    record_hits: bool = False,
    backend: str = "auto",
    check: bool = False,
    ehc_fixed_init: int | None = None,
    aging: bool = True,
):
    """Simulate ``trace`` under the named policy; returns (stats, events, hit_flags)."""
    if name not in POLICY_CLASSES:
        raise UnknownPolicy(
            f"unknown policy {name!r} (choose from {', '.join(POLICY_NAMES)})"
        )
    if backend not in BACKENDS:
        raise UsageError(
            f"unknown backend {backend!r} (choose from {', '.join(BACKENDS)})"
        )
    if backend == "kernel" or (backend == "auto" and not check and _kernels.supports(name)):
        return _kernels.run(
            trace, name, geom, seed,
            record_hits=record_hits,
            record_events=record_events,
            ehc_fixed_init=ehc_fixed_init,
            aging=aging,
        )
    policy = make_policy(name, geom, seed=seed, ehc_fixed_init=ehc_fixed_init, aging=aging)
    return simulate(
        trace, policy, geom,
        record_events=record_events,
        record_hits=record_hits,
        check=check,
    )
