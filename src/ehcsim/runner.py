"""Policy registry, the backend selector and the entry point for running
a simulation.

:func:`pick_backend` is the one place that picks one of the two execution
paths, which answer the same calls with the same stats, hit flags and
replacement events: the native kernel (:mod:`ehcsim._kernels`, fast) and
the reference engine behind :mod:`ehcsim.minoracle` (slower, but runs
without a C compiler). ``backend="auto"`` uses the kernel unless it could
not be built. Per-access invariant checks and arbitrary policy objects run
on :func:`ehcsim.engine.simulate` directly.
"""

from __future__ import annotations

from . import _kernels
from .params import POLICY_NAMES  # noqa: F401  (re-exported)
from .values import CacheGeometry, DEFAULT_GEOMETRY

TYPE_CHECKING = False  # typing's constant; a kernel run never imports typing
if TYPE_CHECKING:
    from .trace import Trace

DEFAULT_SEED = 42


def simulate(*args, **kwargs):
    """:func:`ehcsim.engine.simulate`, imported on the first call: a run on
    the kernel never loads the reference engine."""
    from .engine import simulate

    return simulate(*args, **kwargs)


def make_policy(
    name: str,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    seed: int = DEFAULT_SEED,
):
    """A reference-engine policy object for the named built-in policy."""
    # Only the reference path needs the policy classes, so only it imports them.
    from .belady import EhcPolicy, HawkeyePolicy
    from .policies import BrripPolicy, DrripPolicy, LruPolicy, ShipPolicy, SrripPolicy

    _kernels.check_policy(name)
    cls = {"lru": LruPolicy, "srrip": SrripPolicy, "brrip": BrripPolicy, "drrip": DrripPolicy,
           "ship": ShipPolicy, "hawkeye": HawkeyePolicy, "ehc": EhcPolicy}[name]
    return cls(geom, seed=seed)


def pick_backend(backend: str, geom: CacheGeometry):
    """:mod:`ehcsim._kernels`, or :mod:`ehcsim.minoracle`, whose ``next_use``,
    ``buffer``, ``run`` and ``prediction_error`` answer the kernel's calls on
    the reference engine; raises as :func:`ehcsim._kernels.use_kernel` does."""
    if _kernels.use_kernel(backend, geom):
        return _kernels
    from . import minoracle

    return minoracle


def run_policy(
    trace: Trace,
    name: str,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    seed: int = DEFAULT_SEED,
    record_events: bool = False,
    backend: str = "auto",
):
    """Simulate ``trace`` under the named policy; returns (stats, events, hit_flags).

    ``trace`` is a :class:`~ehcsim.trace.Trace`, or on the kernel backend
    also the :class:`~ehcsim._kernels.Columns` of
    :func:`ehcsim._kernels.load_trace`. A geometry beyond the kernel's
    bound raises :class:`~ehcsim.errors.GeometryTooLarge` on either backend.
    """
    _kernels.check_policy(name)
    return pick_backend(backend, geom).run(trace, name, geom, seed, record_events=record_events)
