"""Policy registry and the single entry point for running a simulation.

``run_policy`` picks between the two execution paths, which return the same
stats, hit flags and replacement events: the native kernel (fast) and the
reference engine (slower, but runs without a C compiler).
``backend="auto"`` uses the kernel unless it could not be built. Per-access
invariant checks and arbitrary policy objects run on
:func:`ehcsim.engine.simulate` directly.
"""

from __future__ import annotations

from . import _kernels
from ._kernels import BACKENDS  # noqa: F401 (the backends run_policy takes)
from .belady import EhcPolicy, HawkeyePolicy, check_fixed_init
from .engine import CacheGeometry, DEFAULT_GEOMETRY, simulate
from .errors import UnknownPolicy
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
    backend: str = "auto",
    ehc_fixed_init: int | None = None,
    aging: bool = True,
):
    """Simulate ``trace`` under the named policy; returns (stats, events, hit_flags).

    ``ehc_fixed_init``, when given, is the EFH every EHC insertion starts
    from instead of the region table's prediction.
    """
    if name not in POLICY_CLASSES:
        raise UnknownPolicy(
            f"unknown policy {name!r} (choose from {', '.join(POLICY_NAMES)})"
        )
    _kernels.check_backend(backend)
    check_fixed_init(ehc_fixed_init)
    if backend == "kernel" or (backend == "auto" and _kernels.supports(name)):
        return _kernels.run(
            trace, name, geom, seed,
            record_events=record_events,
            ehc_fixed_init=ehc_fixed_init,
            aging=aging,
        )
    policy = make_policy(name, geom, seed=seed, ehc_fixed_init=ehc_fixed_init, aging=aging)
    return simulate(trace, policy, geom, record_events=record_events)
