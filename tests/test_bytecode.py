"""The package's bytecode is the kernel cache's second artifact: a kernel
command writes checked-hash bytecode for every module into the
``__pycache__`` that holds the compiled kernel, so later processes compile
no ``ehcsim`` module, also under ``PYTHONDONTWRITEBYTECODE``; an edited
module never runs old bytecode; and where the bytecode cannot or must not
be written, nothing is written and nothing is said.

Each test runs ``ehcsim run`` in child processes on a copy of the package.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ehcsim
from ehcsim import GeneratorSpec, _kernels, gen_synthetic, save_trace
from ehcsim.cli import main

PACKAGE = Path(ehcsim.__path__[0])
# What ``python -v`` prints for a module it compiles from source; from
# bytecode it names the quoted ``.pyc`` file instead.
COMPILED_FROM_SOURCE = re.compile(r"^# code object from \S*/ehcsim/[^/]*\.py$", re.M)
CHECKED_HASH = 0b11  # the flags word of a checked-hash .pyc


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A small trace, and the CSV of ``run`` on it by this process's
    package."""
    directory = tmp_path_factory.mktemp("bytecode")
    path = directory / "t.trace"
    save_trace(gen_synthetic(GeneratorSpec("mixed", 256, 2000)), path)
    csv = directory / "run.csv"
    assert main(_run_args(path, csv)) == 0
    return path, csv.read_text()


def _run_args(trace, csv):
    return ["run", "--policy", "ehc", "--trace", str(trace), "--sets", "64", "--ways", "4",
            "--csv", str(csv)]


def _copy_package(root, library=True):
    """A copy of the package's sources at ``root / "ehcsim"``; with
    ``library``, the compiled kernel in its ``__pycache__`` too, so that no
    command builds it."""
    package = root / "ehcsim"
    package.mkdir()
    for path in PACKAGE.iterdir():
        if path.suffix in (".py", ".c"):
            shutil.copy2(path, package)
    if library:
        lib, reason = _kernels._native()
        assert lib is not None, reason
        (package / "__pycache__").mkdir(mode=0o700)
        shutil.copy2(lib.__file__, package / "__pycache__")
    return package


def _environ(root, env=None):
    """The environment of a child process that imports the package from
    ``root``, without ``.pyc`` writes by the import system."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    environ.update(PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1", **(env or {}))
    return environ


def _ehcsim(root, trace, *flags, env=None, args=()):
    """``(exit status, stderr, CSV)`` of ``ehcsim run`` with ``args`` added
    in a child process with :func:`_environ`."""
    csv = root / "run.csv"
    csv.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, *flags, "-m", "ehcsim", *_run_args(trace, csv), *args],
                          capture_output=True, text=True, env=_environ(root, env), timeout=120)
    return proc.returncode, proc.stderr, csv.read_text() if csv.exists() else None


def test_first_command_writes_every_modules_bytecode_and_the_next_compiles_none(tmp_path,
                                                                                 trace):
    path, expected = trace
    package = _copy_package(tmp_path, library=False)  # the first command builds it
    assert _ehcsim(tmp_path, path) == (0, "", expected)
    tag = sys.implementation.cache_tag
    modules = sorted(p.stem for p in package.glob("*.py"))
    assert len(modules) > 10
    for stem in modules:
        data = (package / "__pycache__" / f"{stem}.{tag}.pyc").read_bytes()
        assert int.from_bytes(data[4:8], "little") == CHECKED_HASH, stem
    code, err, csv = _ehcsim(tmp_path, path, "-v")
    assert (code, csv) == (0, expected)
    assert f"/ehcsim/__pycache__/cli.{tag}.pyc" in err
    assert COMPILED_FROM_SOURCE.findall(err) == []
    # Nor does a compare or an analyze on the kernel.
    for command in (["compare", "--policies", "hawkeye,ehc"], ["analyze", "--report", "min-gap"]):
        proc = subprocess.run(
            [sys.executable, "-v", "-m", "ehcsim", *command, "--trace", str(path), "--sets", "64",
             "--ways", "4", "--csv", str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=_environ(tmp_path), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"/ehcsim/__pycache__/cli.{tag}.pyc" in proc.stderr, command
        assert COMPILED_FROM_SOURCE.findall(proc.stderr) == [], command


def test_module_edited_after_the_bytecode_was_written_compiles_once(tmp_path, trace):
    """No kernel command, ``run --events`` included, imports ``engine``; its
    edit is still seen by the next one, so a process that then imports it
    compiles no module."""
    path, expected = trace
    package = _copy_package(tmp_path)
    events = ("--events", str(tmp_path / "events.csv"))
    assert _ehcsim(tmp_path, path, args=events) == (0, "", expected)
    tag = sys.implementation.cache_tag
    pyc = os.stat(package / "__pycache__" / f"engine.{tag}.pyc")
    module = package / "engine.py"
    module.write_text(module.read_text() + "# edited\n")
    # Newer than its bytecode, also on a file system with coarse mtimes.
    os.utime(module, ns=(pyc.st_atime_ns, pyc.st_mtime_ns + 10**9))
    assert _ehcsim(tmp_path, path, args=events) == (0, "", expected)
    proc = subprocess.run([sys.executable, "-v", "-c", "import ehcsim.engine"],
                          capture_output=True, text=True, env=_environ(tmp_path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert f"/ehcsim/__pycache__/engine.{tag}.pyc" in proc.stderr
    assert COMPILED_FROM_SOURCE.findall(proc.stderr) == []


def test_edit_that_keeps_size_and_mtime_runs_the_edited_module(tmp_path, trace):
    path, expected = trace
    package = _copy_package(tmp_path)
    assert _ehcsim(tmp_path, path) == (0, "", expected)
    module = package / "analysis.py"
    before = os.stat(module)
    source = module.read_text()
    edited = source.replace('"no_averse_fraction"', '"NO_AVERSE_FRACTION"')
    assert edited != source and len(edited) == len(source)
    module.write_text(edited)
    os.utime(module, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(module)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    for _ in range(2):  # the old bytecode stays, and still never runs
        code, err, csv = _ehcsim(tmp_path, path)
        assert (code, err) == (0, "")
        assert csv == expected.replace("no_averse_fraction", "NO_AVERSE_FRACTION") != expected


def _pycache_is_a_file(tmp_path, package):
    """The package's ``__pycache__`` is a regular file, so the library is
    built in the temporary directory's fallback."""
    shutil.rmtree(package / "__pycache__")
    (package / "__pycache__").write_text("")
    (tmp_path / "tmp").mkdir()
    return {"TMPDIR": str(tmp_path / "tmp")}


def _pyc_names_are_directories(tmp_path, package):
    """Every module's bytecode name is taken by a directory, so each
    write raises OSError."""
    tag = sys.implementation.cache_tag
    for module in package.glob("*.py"):
        (package / "__pycache__" / f"{module.stem}.{tag}.pyc").mkdir()
    return {}


def _pycache_prefix(tmp_path, package):
    """The interpreter reads bytecode under ``sys.pycache_prefix``."""
    return {"PYTHONPYCACHEPREFIX": str(tmp_path / "prefix")}


def _read_only_package(tmp_path, package):
    """No directory of the package may be written to."""
    if os.geteuid() == 0:
        pytest.skip("root may write to a read-only directory")
    shutil.rmtree(package / "__pycache__")
    package.chmod(0o555)
    (tmp_path / "tmp").mkdir()
    return {"TMPDIR": str(tmp_path / "tmp")}


@pytest.mark.parametrize("setup", [_pycache_is_a_file, _pyc_names_are_directories,
                                   _pycache_prefix, _read_only_package])
def test_skipped_bytecode_write_changes_no_output(tmp_path, trace, setup):
    path, expected = trace
    package = _copy_package(tmp_path)
    env = setup(tmp_path, package)
    try:
        for _ in range(2):
            assert _ehcsim(tmp_path, path, env=env) == (0, "", expected)
    finally:
        package.chmod(0o755)
    assert [p for p in tmp_path.rglob("*.pyc") if p.is_file()] == []
