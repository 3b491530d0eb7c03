"""Command-line interface: gen / run / compare / analyze / interleave.

Exit codes: 0 success, 1 usage error or not enough memory, 2 data error
(unreadable or corrupt trace, file I/O), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from . import _kernels
from .analysis import REPORT_KINDS, analyze, compare, run_report
from .errors import DataError, InternalInvariantError, UsageError
from .runner import DEFAULT_SEED, POLICY_NAMES
from .traceformat import GENERATOR_KINDS
from .values import CacheGeometry, DEFAULT_GEOMETRY


def load_trace(path):
    """The validated trace file at ``path`` that ``run``, ``compare`` and
    ``analyze`` take: when the native kernel is available, the
    :class:`~ehcsim._kernels.Columns` it runs on, read without numpy;
    otherwise a :class:`~ehcsim.trace.Trace`. Both raise the same error for
    a defective file."""
    if _kernels.unavailable() is None:
        return _kernels.load_trace(path)
    from . import trace

    return trace.load_trace(path)


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sets", type=int, default=DEFAULT_GEOMETRY.num_sets)
    p.add_argument("--ways", type=int, default=DEFAULT_GEOMETRY.associativity)
    p.add_argument("--block-bits", type=int, default=DEFAULT_GEOMETRY.block_offset_bits)


def _geometry(args) -> CacheGeometry:
    try:
        return CacheGeometry(args.sets, args.ways, args.block_bits)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--blocks", type=int, required=True, help="working-set size in blocks")
    p.add_argument("--length", type=int, required=True, help="number of accesses")
    p.add_argument("--alpha", type=float, default=1.0, help="Zipf skew")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", required=True)


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True)
    p.add_argument("--policy", required=True, choices=POLICY_NAMES)
    _add_geometry_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--events", help="also dump the replacement event log (CSV)")
    p.add_argument("--csv", required=True)


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True)
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    _add_geometry_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--events", action="store_true",
                   help="score victim quality too (records every replacement)")
    p.add_argument("--csv", required=True)


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True)
    p.add_argument("--report", required=True, choices=REPORT_KINDS)
    p.add_argument("--policy", default="ehc", choices=POLICY_NAMES)
    _add_geometry_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--csv", required=True)


def _interleave_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", required=True)
    p.add_argument("inputs", nargs="+")


#: Each subcommand's help line and the function that adds its arguments.
_PARSERS = {
    "gen": ("generate a synthetic trace", _gen_arguments),
    "run": ("simulate one policy over a trace", _run_arguments),
    "compare": ("run several policies side by side", _compare_arguments),
    "analyze": ("replacement-quality instruments", _analyze_arguments),
    "interleave": ("merge per-program traces into one", _interleave_arguments),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``argv``. When ``argv`` starts with a subcommand, only
    that subcommand's parser is built, and the subparsers' metavar names
    all five, so that usage and error text are the full parser's; without
    one (no command, an unknown one, ``-h`` first) all five are built."""
    parser = argparse.ArgumentParser(prog="ehcsim", description=__doc__)
    if argv and argv[0] in _PARSERS:
        names = [argv[0]]
        # Only the full parser reports a missing or unknown command, whose
        # message names the metavar when there is one.
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_PARSERS) + "}")
    else:
        names = list(_PARSERS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments = _PARSERS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _cmd_gen(args) -> int:
    from .trace import GeneratorSpec, gen_synthetic, save_trace

    spec = GeneratorSpec(args.kind, args.blocks, args.length, args.alpha, args.seed)
    save_trace(gen_synthetic(spec), args.output)
    return 0


def _cmd_run(args) -> int:
    geom = _geometry(args)
    trace = load_trace(args.trace)
    report, _, events = run_report(trace, args.policy, geom, seed=args.seed,
                                   record_events=bool(args.events))
    report.write(args.csv)
    if args.events:
        events.write_csv(args.events, trace, geom)
    return 0


def _cmd_compare(args) -> int:
    geom = _geometry(args)
    trace = load_trace(args.trace)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise UsageError("--policies must name at least one policy")
    compare(trace, policies, geom, seed=args.seed, events=args.events).write(args.csv)
    return 0


def _cmd_analyze(args) -> int:
    geom = _geometry(args)
    trace = load_trace(args.trace)
    analyze(trace, args.report, policy=args.policy, geom=geom, seed=args.seed).write(args.csv)
    return 0


def _cmd_interleave(args) -> int:
    from .trace import interleave, load_trace, save_trace

    traces = [load_trace(path) for path in args.inputs]
    save_trace(interleave(traces), args.output)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "analyze": _cmd_analyze,
    "interleave": _cmd_interleave,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"ehcsim: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"ehcsim: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"ehcsim: internal invariant violated: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # GeometryTooLarge, a UsageError, is reported above
        detail = f" ({e})" if str(e) else ""
        print(f"ehcsim: cannot allocate memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
