"""The CLI's usage, help and argparse error text, byte for byte.

``cli_text.json`` holds the exit status, stdout and stderr of each case, as
``python -m ehcsim`` printed them with ``COLUMNS=80`` under the Python
version it names (argparse's layout differs between versions). A
well-formed ``run``, ``compare`` or ``analyze`` argv is read without
argparse, so the other tests check, on any version, that that reading gives
argparse's namespace, and that every argv it does not read (help, errors,
``gen``, ``interleave``, anything unusual) is left to argparse.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from ehcsim import cli

from test_cli_contract import commands

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


#: Argvs that the parser without argparse leaves to argparse, although
#: argparse reads some of them: help, a flag joined to its value, an
#: abbreviated flag, a repeated flag, ``--``, a missing value, a value that
#: argparse takes for a flag, and values its type or choices refuse.
LEFT_TO_ARGPARSE = {
    "run-help-last": [*VALID["run"], "-h"],
    "joined-value": ["run", "--trace=t.trace", "--policy", "ehc", "--csv", "out.csv"],
    "abbreviated-flag": ["run", "--trace", "t.trace", "--pol", "ehc", "--csv", "out.csv"],
    "repeated-flag": [*VALID["run"], "--sets", "128"],
    "repeated-switch": [*VALID["compare"], "--events"],
    "double-dash": ["analyze", "--", *VALID["analyze"][1:]],
    "missing-value": [*VALID["run"], "--ways"],
    "flag-as-value": ["run", "--trace", "--csv", "--policy", "ehc", "--csv", "out.csv"],
    "dash-value": ["run", "--trace", "-t.trace", "--policy", "ehc", "--csv", "out.csv"],
    "negative-fraction": [*VALID["analyze"], "--seed", "-1.5"],
    "negative-with-newline": [*VALID["analyze"], "--seed", "-1\n"],
    "float-sets": [*VALID["compare"], "--sets", "64.0"],
    "bad-choice": ["analyze", "--trace", "t.trace", "--report", "min-gap", "--policy", "min",
                   "--csv", "out.csv"],
    "positional": [*VALID["run"], "extra"],
}
#: Well-formed argvs that it reads: negative numbers, values argparse's
#: ``int`` takes, any text for a string.
READ = {
    "negative-numbers": [*VALID["run"][:-2], "--ways", "-4", "--seed", "-0", "--block-bits",
                         "-70"],
    "int-forms": [*VALID["analyze"], "--sets", " 1_024 ", "--seed", "+7"],
    "empty-policies": ["compare", "--policies", ",", "--trace", "", "--csv", "out.csv"],
}


def _read_as_argparse(argv):
    """What the parser without argparse reads from ``argv``, after checking
    that, when it reads anything, argparse reads the same, silently."""
    fast = cli._parse(argv)
    if fast is not None:
        full, out, err = _captured(lambda: cli.build_parser().parse_args(argv))
        assert (out, err) == ("", ""), argv
        assert vars(fast) == vars(full), argv
    return fast


def _namespace(captured):
    """``captured`` with a parsed namespace turned into its ``vars``, so
    that :func:`cli._parse`'s SimpleNamespace and argparse's Namespace
    compare alike."""
    result, out, err = captured
    return (result if isinstance(result, tuple) else vars(result)), out, err


@pytest.mark.parametrize("argv", [case["argv"] for case in CASES.values()] + list(VALID.values()),
                         ids=[*CASES, *(f"valid-{name}" for name in VALID)])
def test_parser_of_one_subcommand_prints_and_parses_as_the_full_parser(argv):
    # cli._parse reads from the table of the one subcommand it is given,
    # and main leaves to the full parser every argv it does not read: the
    # two together print and parse as the full parser alone. Of these
    # argvs it reads just the valid run, compare and analyze commands.
    assert sorted(cli._COMMANDS) == sorted(VALID)
    full = _namespace(_captured(lambda: cli.build_parser().parse_args(argv)))
    chosen = _namespace(_captured(
        lambda: cli._parse(argv) or cli.build_parser().parse_args(argv)))
    assert chosen == full
    read = argv in [VALID[name] for name in cli._PARSED_WITHOUT_ARGPARSE]
    assert (_read_as_argparse(argv) is not None) == read


@pytest.mark.parametrize("argv, read", [
    *((argv, False) for argv in LEFT_TO_ARGPARSE.values()),
    *((argv, True) for argv in READ.values()),
], ids=[*LEFT_TO_ARGPARSE, *READ])
def test_parse_is_argparse_or_none(argv, read):
    assert (_read_as_argparse(argv) is not None) == read


@settings(max_examples=100, deadline=None, derandomize=True)
@given(commands())
def test_parse_reads_every_contract_command_as_argparse(argv):
    # The contract test's argvs are all well-formed, so each one of the
    # three commands is read.
    read = _read_as_argparse(argv) is not None
    assert read == (argv[0] in cli._PARSED_WITHOUT_ARGPARSE), argv
