"""The package's public names and what each command imports."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehcsim
from ehcsim import GeneratorSpec, _kernels, analysis, gen_synthetic, runner, save_trace
from ehcsim.analysis import REPORT_KINDS
from ehcsim.engine import CacheGeometry


def test_every_public_name_resolves():
    for name in ehcsim.__all__:
        assert getattr(ehcsim, name) is not None, name
    assert set(ehcsim.__all__) <= set(dir(ehcsim))
    namespace = {}
    exec("from ehcsim import *", namespace)
    assert set(ehcsim.__all__) <= set(namespace)
    assert namespace["CacheGeometry"] is CacheGeometry


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ehcsim.no_such_name


# Modules the kernel path of ``run``, ``compare`` and ``analyze`` needs none
# of: numpy and the numpy trace model, the reference engine, policies and
# MIN oracle, the kernel's build module and ``py_compile`` (the library and
# the package's bytecode are cached), two standard modules numpy does not
# import itself, argparse, which a well-formed argv does not need, and
# ctypes: the kernel is an extension module.
NOT_ON_THE_RUN_PATH = (
    "dataclasses", "hashlib", "ehcsim.minoracle", "ehcsim.policies", "ehcsim.belady",
    "ehcsim.sampler", "numpy", "ehcsim.trace", "ehcsim.engine", "ehcsim._kernel_build",
    "py_compile", "argparse", "ctypes",
)
# What only a kernel build needs; the host's site may import these itself,
# so they are checked without it.
BUILD_ONLY = ("pathlib", "subprocess", "tempfile", "sysconfig")


def _child(tmp_path, absent, commands, flags=()):
    """Run ``commands`` in a child process, where ``args`` names a trace
    file and a geometry, and check before and after them that none of
    ``absent`` is loaded."""
    trace = tmp_path / "t.trace"
    # ``gen`` needs numpy.random, which imports hashlib.
    save_trace(gen_synthetic(GeneratorSpec("mixed", 256, 2000)), trace)
    # In a child process: this one has imported everything already.
    path = f"""
import sys
sys.path.insert(0, {os.path.dirname(ehcsim.__path__[0])!r})
"""
    # A first kernel load, to build the library and write the package's
    # bytecode if either is missing or stale.
    warm_up = path + "import ehcsim.cli; assert ehcsim._kernels.unavailable() is None"
    proc = subprocess.run([sys.executable, *flags, "-c", warm_up], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code = path + f"""
import ehcsim.cli
absent = {absent!r}
loaded = [m for m in absent if m in sys.modules]
assert not loaded, ("import", loaded)
from ehcsim import _kernels
assert _kernels.unavailable() is None, _kernels.unavailable()
args = ["--trace", {str(trace)!r}, "--sets", "64", "--ways", "4"]
{commands}
loaded = [m for m in absent if m in sys.modules]
assert not loaded, ("run", loaded)
"""
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _assert_kernel_commands_load_none_of(tmp_path, absent, flags=()):
    commands = f"""
for policy in ("lru", "ship", "ehc"):
    assert ehcsim.cli.main(["run", "--policy", policy, *args,
                            "--csv", {str(tmp_path / "run.csv")!r}]) == 0
for events in ([], ["--events"]):
    assert ehcsim.cli.main(["compare", "--policies", "drrip,hawkeye", *events, *args,
                            "--csv", {str(tmp_path / "compare.csv")!r}]) == 0
for report in {REPORT_KINDS!r}:
    assert ehcsim.cli.main(["analyze", "--report", report, *args,
                            "--csv", {str(tmp_path / "analyze.csv")!r}]) == 0
"""
    _child(tmp_path, absent, commands, flags)


def test_run_loads_no_reference_policy_or_oracle(tmp_path):
    _assert_kernel_commands_load_none_of(tmp_path, NOT_ON_THE_RUN_PATH)


def test_kernel_commands_without_site_load_no_build_machinery(tmp_path):
    _assert_kernel_commands_load_none_of(tmp_path, NOT_ON_THE_RUN_PATH + BUILD_ONLY, ["-S"])


def test_kernel_run_with_events_loads_no_engine_trace_or_build_module(tmp_path):
    # The dump needs numpy, but the log is the kernel's EventLog and the
    # trace is the kernel's columns; the MIN oracle and argparse are not
    # needed either. Without site numpy does not import on every host.
    commands = f"""
for policy in ("lru", "hawkeye", "ehc"):
    assert ehcsim.cli.main(["run", "--policy", policy, *args,
                            "--events", {str(tmp_path / "events.csv")!r},
                            "--csv", {str(tmp_path / "run.csv")!r}]) == 0
assert "numpy" in sys.modules
"""
    _child(tmp_path, ("ehcsim.engine", "ehcsim.trace", "ehcsim.minoracle", "ehcsim._kernel_build",
                      "argparse"), commands)


def test_benchmark_probe_sees_each_policy_run_on_the_kernel():
    # The benchmark's probe wraps analysis.run_policy and the backends' runs,
    # then reads which backend each run_policy call reached from its spans.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert _kernels.unavailable() is None, _kernels.unavailable()
    trace = gen_synthetic(GeneratorSpec("mixed", 256, 2000))
    originals = (analysis.run_policy, _kernels.run, runner.simulate)
    recorder = spans.Recorder("probe", "probe")
    restore = recorder.instrument_ehcsim()
    try:
        assert analysis.run_policy is not originals[0]
        for policy in runner.POLICY_NAMES:
            analysis.run_policy(trace, policy, CacheGeometry(64, 4))
    finally:
        restore()
    assert (analysis.run_policy, _kernels.run, runner.simulate) == originals
    assert spans.backends_by_policy(recorder.spans) == dict.fromkeys(runner.POLICY_NAMES,
                                                                     "kernel")
