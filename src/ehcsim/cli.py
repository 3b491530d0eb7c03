"""Command-line interface: gen / run / compare / analyze / interleave.

Exit codes: 0 success, 1 usage error or not enough memory, 2 data error
(unreadable or corrupt trace, file I/O), 3 internal invariant violation.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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


def _geometry(args) -> CacheGeometry:
    try:
        return CacheGeometry(args.sets, args.ways, args.block_bits)
    except ValueError as e:
        raise UsageError(str(e)) from None


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


def _option(*flags, **settings):
    """One option: its flags and the keywords ``add_argument`` takes for it."""
    return flags, settings


_GEOMETRY = (
    _option("--sets", type=int, default=DEFAULT_GEOMETRY.num_sets),
    _option("--ways", type=int, default=DEFAULT_GEOMETRY.associativity),
    _option("--block-bits", type=int, default=DEFAULT_GEOMETRY.block_offset_bits),
)
_SEED = _option("--seed", type=int, default=DEFAULT_SEED)

#: Each subcommand, in help's order: its help line, its options (flags and
#: ``add_argument`` keywords, in its help's order) and its handler.
_COMMANDS = {
    "gen": ("generate a synthetic trace", (
        _option("--kind", required=True, choices=GENERATOR_KINDS),
        _option("--blocks", type=int, required=True, help="working-set size in blocks"),
        _option("--length", type=int, required=True, help="number of accesses"),
        _option("--alpha", type=float, default=1.0, help="Zipf skew"),
        _SEED,
        _option("-o", "--output", required=True),
    ), _cmd_gen),
    "run": ("simulate one policy over a trace", (
        _option("--trace", required=True),
        _option("--policy", required=True, choices=POLICY_NAMES),
        *_GEOMETRY,
        _SEED,
        _option("--events", help="also dump the replacement event log (CSV)"),
        _option("--csv", required=True),
    ), _cmd_run),
    "compare": ("run several policies side by side", (
        _option("--trace", required=True),
        _option("--policies", required=True, help="comma-separated policy names"),
        *_GEOMETRY,
        _SEED,
        _option("--events", action="store_true", default=False,
                help="score victim quality too (victims ranked by next use)"),
        _option("--csv", required=True),
    ), _cmd_compare),
    "analyze": ("replacement-quality instruments", (
        _option("--trace", required=True),
        _option("--report", required=True, choices=REPORT_KINDS),
        _option("--policy", default="ehc", choices=POLICY_NAMES),
        *_GEOMETRY,
        _SEED,
        _option("--csv", required=True),
    ), _cmd_analyze),
    "interleave": ("merge per-program traces into one", (
        _option("-o", "--output", required=True),
        _option("inputs", nargs="+"),
    ), _cmd_interleave),
}

#: The subcommands whose well-formed argv :func:`_parse` reads; ``gen``
#: and ``interleave`` import numpy, which costs far more than argparse.
_PARSED_WITHOUT_ARGPARSE = ("run", "compare", "analyze")


def build_parser():
    """The argparse parser of all five subcommands, built from
    :data:`_COMMANDS`: the only source of help, usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(prog="ehcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, settings in options:
            p.add_argument(*flags, **settings)
    return parser


def _negative_number(value: str) -> bool:
    r"""Whether argparse takes ``value``, which starts with ``-``, for a
    negative number rather than a flag: whether it matches
    ``^-\d+$|^-\d*\.\d+$``. A final newline, which that ``$`` also lets
    through, is left to argparse."""
    whole, dot, fraction = value[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _parse(argv):
    """argparse's namespace of a well-formed ``run``, ``compare`` or
    ``analyze`` argv, read without building the parser; None for any other
    argv, which argparse then reads. Well-formed: every token after the
    command is a flag of that command by its full name, each flag comes
    once, every value is one token that argparse takes for a value (it does
    not start with ``-``, or it is a negative number), its type converts it
    and its choices hold it, and every required flag is given."""
    if not argv or argv[0] not in _PARSED_WITHOUT_ARGPARSE:
        return None
    command, *tokens = argv
    options = {flags[0]: settings for flags, settings in _COMMANDS[command][1]}
    given = {}
    tokens = iter(tokens)
    for flag in tokens:
        settings = options.get(flag)
        if settings is None or flag in given:
            return None
        if settings.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and not _negative_number(value):
            return None
        if "type" in settings:
            try:
                value = settings["type"](value)
            except ValueError:
                return None
        if "choices" in settings and value not in settings["choices"]:
            return None
        given[flag] = value
    if any(settings.get("required") and flag not in given
           for flag, settings in options.items()):
        return None
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): given.get(flag, settings.get("default"))
        for flag, settings in options.items()})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return 0 if not e.code else 1
    *_, handler = _COMMANDS[args.command]
    try:
        return handler(args)
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


def exit_with_main() -> None:
    """End the process with :func:`main`'s exit code, without finalizing
    the interpreter. The entry point of ``python -m ehcsim`` and of the
    ``ehcsim`` script.

    Once stdout and stderr are flushed, ``os._exit`` ends the process: no
    module teardown, garbage collection or ``atexit`` handler runs. That
    loses nothing only because every file a command writes is closed before
    :func:`main` returns; each write is a ``with`` block
    (``Report.write``, ``_kernels.EventLog.write_csv``, ``save_trace``,
    ``_kernel_build.build``, ``_kernel_build.write_bytecode``), and a write
    added later must be one too. A flush that fails (a stream closed at
    start-up or since, a broken pipe) leaves the exit to the interpreter,
    which reports it as it would without this function. An exception that
    escapes :func:`main` propagates."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    exit_with_main()
