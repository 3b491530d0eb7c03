"""Run one ehcsim CLI command with a span around each layer's public calls.

Usage: python3 perfbench/traced_cli.py SPANS_JSON WORKLOAD <ehcsim arguments>

Behaves like ``python3 -m ehcsim <ehcsim arguments>`` (same exit code) and
writes the recorded spans to SPANS_JSON when the command returns.
"""

import sys

from spans import Recorder


def main() -> int:
    spans_path, workload, *argv = sys.argv[1:]
    import ehcsim.cli

    rec = Recorder(workload, "cli")
    rec.instrument_ehcsim()
    with rec.span("cli.main", "cli"):
        code = ehcsim.cli.main(argv)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
