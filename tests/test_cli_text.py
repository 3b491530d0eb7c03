"""The CLI's usage, help and argparse error text, byte for byte.

``cli_text.json`` holds the exit status, stdout and stderr of each case, as
``python -m ehcsim`` printed them with ``COLUMNS=80`` under the Python
version it names (argparse's layout differs between versions). The parser
builds only the chosen subcommand's parser, so the second test also checks,
on any version, that each case prints what the parser with all five
subcommands prints.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ehcsim import cli

GOLDEN = json.loads((Path(__file__).with_name("cli_text.json")).read_text())
CASES = GOLDEN["cases"]
# A valid command of each kind, which prints nothing and parses alike.
VALID = {
    "run": ["run", "--trace", "t.trace", "--policy", "ehc", "--csv", "out.csv", "--sets", "64"],
    "compare": ["compare", "--trace", "t.trace", "--policies", "lru,ehc", "--events",
                "--csv", "out.csv"],
    "analyze": ["analyze", "--trace", "t.trace", "--report", "min-gap", "--csv", "out.csv"],
    "gen": ["gen", "--kind", "zipf", "--blocks", "8", "--length", "8", "-o", "t.trace"],
    "interleave": ["interleave", "-o", "t.trace", "a.trace", "b.trace"],
}


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    monkeypatch.delenv("LINES", raising=False)


def _captured(call):
    """``(result, stdout, stderr)`` of ``call()``; a SystemExit's code is
    the result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != GOLDEN["python"],
                    reason=f"the text was captured under Python {GOLDEN['python']}")
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_prints_the_captured_text(case):
    want = CASES[case]
    code, out, err = _captured(lambda: cli.main(want["argv"]))
    assert (code, out.encode(), err.encode()) == (
        want["exit"], want["stdout"].encode(), want["stderr"].encode())


@pytest.mark.parametrize("argv", [case["argv"] for case in CASES.values()] + list(VALID.values()),
                         ids=[*CASES, *(f"valid-{name}" for name in VALID)])
def test_parser_of_one_subcommand_prints_and_parses_as_the_full_parser(argv):
    assert sorted(cli._COMMANDS) == sorted(VALID)
    full = _captured(lambda: cli.build_parser().parse_args(argv))
    chosen = _captured(lambda: cli.build_parser(argv).parse_args(argv))
    assert chosen == full
