"""ehcsim benchmark: host time of the CLI end to end, and of each layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's trace is generated from ``--seed`` and written to disk first.
``--trace 0`` then runs the workload's ``ehcsim`` CLI commands one at a time,
each in a fresh interpreter, a fixed number of times derived from S (about
S seconds of work at the speed the benchmark was sized on, at least
``MIN_ROUNDS``), and prints the end-to-end metrics. ``--trace 1`` times
each layer's public calls in-process on the same trace, runs the CLI
commands with and without spans (a fixed amount of work; S is not used),
and prints the per-layer metrics. Every output is checked; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when a check failed.

All times are host seconds, never simulated time. End-to-end times are
scaled to a reference core speed measured next to each child process
(``SpeedProbe``); the raw samples go to the result file. The simulator has
no hardware reference results, so the model is unvalidated and no error
figure is given. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Recorder, backends_by_policy, duration, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
# One BLAS thread: ehcsim makes no BLAS calls, but numpy's OpenBLAS would
# otherwise start a pool whose threads spin on the other core.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")

POLICIES = ("lru", "srrip", "brrip", "drrip", "ship", "hawkeye", "ehc")
ANALYZE_REPORTS = ("min-gap", "hitcount-region", "victim-quality")
DEFAULT_SEED = 42      # expected.json holds exact counts for this seed
HELD_OUT_SEED = 90173  # never run while the benchmark was tuned; keep it for claims
MIN_ROUNDS = 2
SETUP_SAMPLES = 12  # set-up runs per run, spread evenly over its rounds
SPEED_PROBE_LOOP = 500_000   # arithmetic iterations of the speed probe, about 0.05 s
SPEED_PROBE_PASSES = 9       # toy-LRU passes of the speed probe, about 0.05 s
SPEED_PROBE_KEYS = [random.Random(7).randrange(1 << 20) for _ in range(20_000)]
REFERENCE_PROBE_S = 0.1      # probe time that scaled timings refer to
SETUP_LENGTH = 1000
PROBE_LENGTH = 2000
TRACED_PAIRS = 1
FRACTION_TOLERANCE = 1e-5  # reports print six significant digits


@dataclass(frozen=True)
class Workload:
    kind: str
    blocks: int
    length: int
    sets: int
    ways: int
    commands: tuple  # (label, arguments before --trace/--sets/--ways/--seed/--csv)
    passes: int      # full simulation passes over the trace per iteration
    round_s: float   # host seconds of one iteration with its share of set-up runs, as sized
    alpha: float = 1.0

    def rounds(self, seconds: float) -> int:
        """Iterations in a run of ``seconds``. Fixed by the workload, not by
        how fast the program runs, so every run takes its medians over the
        same number of samples."""
        return max(MIN_ROUNDS, round(seconds / self.round_s))


COMPARE = (("compare", ("compare", "--policies", ",".join(POLICIES))),)
# The same seven simulations, one CLI process per policy: one seven-policy
# compare of the zipf trace takes 10-14 s, too long for SpeedProbe to follow
# the core's speed across it (perfbench/README.md). ``compare`` always adds
# an LRU baseline, so each policy runs through ``run``.
RUN_EACH = tuple((f"run-{p}", ("run", "--policy", p)) for p in POLICIES)
SHARED_COLUMNS = ("hits", "misses", "mpki", "no_averse_fraction")  # of run and compare rows
ANALYZE = tuple(
    (report, ("analyze", "--policy", "ehc", "--report", report)) for report in ANALYZE_REPORTS
)

# Why each workload is here: perfbench/README.md.
WORKLOADS = {
    "region-compare": Workload("region", 4096, 12_000, 256, 8, COMPARE, passes=7, round_s=1.9),
    "zipf-compare-2mb": Workload("zipf", 131072, 200_000, 2048, 16, RUN_EACH, passes=7, round_s=16.5),
    # min-gap: 1 policy + 2 MIN; hitcount-region: 1 MIN; victim-quality: 1 policy
    "mixed-analyze": Workload("mixed", 8192, 30_000, 256, 8, ANALYZE, passes=5, round_s=3.0),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "acc_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Self time per CLI layer that every workload exercises. Kernel, engine and
# MIN-oracle self times depend on which backend ran, so they are reported
# together as self.sim_s (and one by one in the printed breakdown).
SELF_LAYERS = ("process", "cli", "trace", "analysis", "runner", "report")
SIM_LAYERS = ("kernels", "engine", "minoracle")


def per_layer_units() -> dict[str, str]:
    units = {f"trace.{op}_s": "s" for op in ("gen", "save", "load")}
    units |= {f"kernels.{p}_s": "s" for p in POLICIES}
    units |= {f"engine.{p}_s": "s" for p in POLICIES}
    units["engine.ehc_events_s"] = "s"
    units |= {"sampler.observe_s": "s", "sampler.sampled": "count", "sampler.optgen_hit_ratio": "ratio"}
    units |= {
        f"minoracle.{op}_s": "s"
        for op in ("next_use", "min_bypass", "min_nobypass", "prediction_error", "victim_quality")
    }
    units |= {"minoracle.bypasses": "count", "minoracle.residencies": "count"}
    units |= {f"analysis.{op}_s": "s" for op in ("compare", "analyze", "to_csv")}
    units["cli.overhead_s"] = "s"
    units |= {f"self.{layer}_s": "s" for layer in SELF_LAYERS + ("sim",)}
    units["tracing.overhead_s"] = "s"
    units |= {f"sim.{p}.misses": "count" for p in POLICIES}
    units |= {f"sim.{p}.no_averse": "count" for p in ("hawkeye", "ehc")}
    return units


# Simulated counts and the ratio of two of them: the same on any correct
# change of the program, checked against expected.json at the default seed.
EXACT_LAYER_METRICS = tuple(k for k, u in per_layer_units().items() if u in ("count", "ratio"))


# --------------------------------------------------------------------------
# Correctness checks
# --------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAIL {what}: {p}", file=sys.stderr)


@dataclass(frozen=True)
class Facts:
    """What the checks know about the trace without trusting the CLI."""

    length: int
    ways: int
    min_bypass_hits: int | None  # compare workloads only


def parse_report(text: str) -> dict:
    """Tables of an ehcsim report CSV: name -> {label: {column: value}}.

    Parsed here rather than with ``ehcsim.analysis.Report.parse`` so that
    the check does not rely on the program's own reader.
    """
    tables: dict[str, dict] = {}
    columns = rows = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# table="):
            columns, rows = None, tables.setdefault(line[len("# table="):], {})
        elif line.startswith("#"):
            continue
        elif rows is None:
            raise ValueError("data row before any table header")
        elif columns is None:
            columns = line.split(",")[1:]
        else:
            label, *fields = line.split(",")
            if len(fields) != len(columns):
                raise ValueError(f"row {label!r} has {len(fields)} fields, not {len(columns)}")
            rows[label] = dict(zip(columns, map(float, fields)))
    return tables


def _rows(tables: dict, name: str, labels) -> dict:
    rows = tables.get(name)
    if rows is None:
        raise ValueError(f"no table {name!r}")
    if tuple(rows) != tuple(labels):
        raise ValueError(f"table {name!r} rows {tuple(rows)} != {tuple(labels)}")
    return rows


def _check_histogram(rows: dict) -> list[str]:
    problems = []
    total = sum(r["count"] for r in rows.values())
    if total <= 0:
        problems.append("empty histogram")
    for label, r in rows.items():
        if r["count"] < 0 or r["count"] != int(r["count"]):
            problems.append(f"bucket {label}: bad count {r['count']}")
        elif total > 0 and abs(r["fraction"] - r["count"] / total) > FRACTION_TOLERANCE:
            problems.append(f"bucket {label}: fraction {r['fraction']} != count/total")
    return problems


def check_output(label: str, text: str, facts: Facts, expected: dict | None) -> list[str]:
    """Invariants of one command's CSV, plus exact counts when ``expected``."""
    try:
        tables = parse_report(text)
        problems = []
        if label == "compare" or label.startswith("run-"):
            table = "compare" if label == "compare" else "run"
            rows = _rows(tables, table, POLICIES if label == "compare" else (label.removeprefix("run-"),))
            for name, r in rows.items():
                if r["hits"] + r["misses"] != facts.length:
                    problems.append(f"{name}: hits + misses != {facts.length} accesses")
                if r["hits"] > facts.min_bypass_hits:
                    problems.append(f"{name}: {r['hits']:.0f} hits > MIN-bypass {facts.min_bypass_hits}")
        elif label == "min-gap":
            rows = _rows(tables, "min_gap", ("ehc", "min-nobypass", "min-bypass"))
            for name, r in rows.items():
                if r["hits"] + r["misses"] != facts.length:
                    problems.append(f"{name}: hits + misses != {facts.length} accesses")
            if rows["ehc"]["hits"] > rows["min-bypass"]["hits"]:
                problems.append("ehc has more hits than MIN-bypass")
            if rows["min-bypass"]["hits"] < rows["min-nobypass"]["hits"]:
                problems.append("MIN-bypass has fewer hits than MIN-no-bypass")
        elif label == "hitcount-region":
            problems += _check_histogram(_rows(tables, "prediction_error", ("0", "1", "2", "3", "4+")))
        elif label == "victim-quality":
            rows = _rows(tables, "victim_rank", [str(r) for r in range(facts.ways + 1)])
            problems += _check_histogram(rows)
            total = sum(r["count"] for r in rows.values())
            mean = sum(int(k) * r["count"] for k, r in rows.items()) / total if total else 0.0
            reported = _rows(tables, "summary", ("ehc",))["ehc"]["mean_rank"]
            if abs(reported - mean) > FRACTION_TOLERANCE * max(1.0, mean):
                problems.append(f"mean_rank {reported} != {mean} from the histogram")
        else:
            raise ValueError(f"no check for command {label!r}")
        for table, rows in (expected or {}).items():
            for row, cols in rows.items():
                for col, want in cols.items():
                    got = tables.get(table, {}).get(row, {}).get(col)
                    if got != want:
                        problems.append(f"{table}/{row}/{col} = {got}, expected {want}")
        return problems
    except (ValueError, KeyError) as e:
        return [f"unreadable report: {e}"]


def expected_counts(name: str, wl: Workload, seed: int) -> dict | None:
    """Committed exact counts of the workload, or None off the default seed:
    ``commands`` (per command label) and ``layers`` (EXACT_LAYER_METRICS)."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_PATH) as fh:
        entry = json.load(fh)["workloads"][name]
    if entry["length"] != wl.length:
        raise SystemExit(f"perfbench: {EXPECTED_PATH.name} is for length {entry['length']}, not {wl.length}")
    return entry


def check_exact_layers(metrics: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return []
    return [
        f"{k} = {metrics[k]}, expected {expected['layers'][k]}"
        for k in EXACT_LAYER_METRICS if metrics[k] != expected["layers"][k]
    ]


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


def probe_seconds() -> float:
    """Host seconds of fixed pure-Python work that uses no ehcsim code: about
    half integer arithmetic, half list and dict updates of a toy 256-set,
    8-way LRU cache."""
    start = time.perf_counter()
    s = 0
    for i in range(SPEED_PROBE_LOOP):
        s += i * i % 7
    for _ in range(SPEED_PROBE_PASSES):
        sets = [[] for _ in range(256)]
        resident = {}
        for key in SPEED_PROBE_KEYS:
            ways = sets[key & 255]
            if key in resident:
                ways.remove(key)
            elif len(ways) == 8:
                del resident[ways.pop(0)]
            resident[key] = True
            ways.append(key)
    return time.perf_counter() - start


class SpeedProbe:
    """How fast this core runs next to each child process.

    Other tenants of a shared host slow its cores by 40-60%, in spells
    from milliseconds to minutes, so raw times of the same code drift from
    run to run by more than any useful bound. With the benchmark and its
    children pinned to one core, the probe's time before and after a child
    tracks the child's slowdown. Arithmetic alone slows less than the CLI
    and list/dict work more, so the probe does half of each (measurements:
    perfbench/README.md). Each child's times are scaled by
    ``REFERENCE_PROBE_S`` / the mean of the two probes: seconds at the speed
    at which the probe takes ``REFERENCE_PROBE_S``.
    """

    def __init__(self):
        self.last = probe_seconds()

    def scale_after_run(self) -> float:
        before, self.last = self.last, probe_seconds()
        return REFERENCE_PROBE_S / ((before + self.last) / 2)


@dataclass(frozen=True)
class ChildRun:
    start: float  # time.perf_counter(); CLOCK_MONOTONIC, shared with the child on Linux
    wall: float
    cpu: float
    rss_mb: float
    code: int
    scale: float  # SpeedProbe factor: wall * scale is in reference seconds


def run_child(argv: list[str], log_path: Path, speed: SpeedProbe) -> ChildRun:
    """Run one command to completion; wall, user+sys CPU, max RSS and the
    speed scale measured around it."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode,
                    speed.scale_after_run())


def ehcsim_args(args, trace_path: Path, csv_path: Path, wl: Workload, seed: int) -> list[str]:
    return [
        *args, "--trace", str(trace_path), "--sets", str(wl.sets), "--ways", str(wl.ways),
        "--seed", str(seed), "--csv", str(csv_path),
    ]


@dataclass
class Iteration:
    runs: dict = field(default_factory=dict)  # command label -> ChildRun
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs.values())


class Runner:
    """Runs a workload's CLI commands and checks every output."""

    def __init__(self, name, wl, seed, trace_path, work, facts, expected, tally, speed):
        self.name, self.wl, self.seed = name, wl, seed
        self.trace_path, self.work = trace_path, work
        self.facts, self.expected, self.tally = facts, expected, tally
        self.speed = speed
        self.first_csv: dict[str, bytes] = {}

    def iteration(self, traced: bool = False) -> Iteration:
        it = Iteration()
        for label, args in self.wl.commands:
            csv_path = self.work / f"{label}.csv"
            spans_path = self.work / f"{label}.spans.json"
            csv_path.unlink(missing_ok=True)
            cmd = ehcsim_args(args, self.trace_path, csv_path, self.wl, self.seed)
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), self.name, *cmd]
            else:
                argv = [sys.executable, "-m", "ehcsim", *cmd]
            run = it.runs[label] = run_child(argv, self.work / "child.log", self.speed)
            problems = []
            if run.code != 0:
                log = (self.work / "child.log").read_text(errors="replace").strip()
                problems.append(f"exit code {run.code}: {log[-500:]}")
            else:
                data = csv_path.read_bytes()
                problems += check_output(
                    label, data.decode(), self.facts, (self.expected or {}).get("commands", {}).get(label)
                )
                if self.first_csv.setdefault(label, data) != data:
                    problems.append("CSV differs from the first run with the same seed")
                if traced:
                    child = json.loads(spans_path.read_text())
                    it.spans.append({
                        "id": f"proc:{label}", "name": f"process.{label}", "layer": "process",
                        "parent": None, "workload": self.name,
                        "start": run.start, "end": run.start + run.wall, "arg": label,
                    })
                    for s in child:
                        s["id"] = f"{label}:{s['id']}"
                        s["parent"] = f"{label}:{s['parent']}" if s["parent"] else f"proc:{label}"
                    it.spans += child
            self.tally.record(f"{self.name} {label}", problems)
        return it


# --------------------------------------------------------------------------
# Measurements
# --------------------------------------------------------------------------


def generate_trace(wl: Workload, length: int, seed: int, path: Path, rec: Recorder | None = None):
    from ehcsim import GeneratorSpec, gen_synthetic, load_trace, save_trace

    rec = rec or Recorder("", "untraced")
    with rec.span("trace.gen", "trace"):
        trace = gen_synthetic(GeneratorSpec(wl.kind, wl.blocks, length, wl.alpha, seed))
    with rec.span("trace.save", "trace"):
        save_trace(trace, path)
    with rec.span("trace.load", "trace"):
        trace = load_trace(path)
    return trace


def setup_runner(wl: Workload, seed: int, work: Path, tally: Tally, speed: SpeedProbe):
    """A function timing one fresh-interpreter ``ehcsim run --policy ehc``
    on a 1k-access trace: import plus kernel first-call cost."""
    small, csv_path = work / "setup.trace", work / "setup.csv"
    generate_trace(wl, SETUP_LENGTH, seed, small)
    argv = [sys.executable, "-m", "ehcsim",
            *ehcsim_args(("run", "--policy", "ehc"), small, csv_path, wl, seed)]

    def run_once() -> ChildRun:
        csv_path.unlink(missing_ok=True)
        run = run_child(argv, work / "setup.log", speed)
        problems = [f"exit code {run.code}"] if run.code != 0 else []
        if not problems:
            try:
                row = parse_report(csv_path.read_text())["run"]["ehc"]
                if not row["accesses"] == row["hits"] + row["misses"] == SETUP_LENGTH:
                    problems.append(f"accesses/hits/misses do not add up to {SETUP_LENGTH}")
            except (ValueError, KeyError) as e:
                problems.append(f"unreadable report: {e}")
        tally.record("setup run", problems)
        return run

    return run_once


def probe_auto_backends(wl: Workload, seed: int, work: Path) -> dict[str, str]:
    """Which backend ``run_policy(backend="auto")`` picks, on a short prefix."""
    from ehcsim import CacheGeometry, analysis

    trace = generate_trace(wl, PROBE_LENGTH, seed, work / "probe.trace")
    rec = Recorder("probe", "probe")
    restore = rec.instrument_ehcsim()
    try:
        for p in POLICIES:
            analysis.run_policy(trace, p, CacheGeometry(wl.sets, wl.ways), seed=seed)
    finally:
        restore()
    found = backends_by_policy(rec.spans)
    return {p: found.get(p, "other") for p in POLICIES}


def environment(name, wl, seed, trace, trace_path, work, cores) -> dict:
    import numpy
    from ehcsim import _kernels

    return {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "geometry": {"sets": wl.sets, "ways": wl.ways, "block_bits": 6},
        "trace": {
            "kind": wl.kind,
            "blocks": wl.blocks,
            "alpha": wl.alpha,
            "length": len(trace),
            "instructions": trace.instruction_count,
            "blake2b": hashlib.blake2b(trace_path.read_bytes()).hexdigest(),
        },
        "jit_enabled": getattr(_kernels, "JIT_ENABLED", None),
        "auto_backend": probe_auto_backends(wl, seed, work),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(cores),
        "pinned_cpu": cores[-1],
        "reference_probe_s": REFERENCE_PROBE_S,
        "model_validated": False,
    }


def min_bypass_hits(trace, wl: Workload) -> int:
    from ehcsim import CacheGeometry, simulate_min

    stats, _, _, _ = simulate_min(trace, CacheGeometry(wl.sets, wl.ways), bypass=True)
    return stats.hits


def run_end_to_end(runner: Runner, wl: Workload, seed: int, seconds: float, work: Path, tally: Tally):
    """``wl.rounds(seconds)`` workload iterations, each followed by set-up runs.
    Each command's wall and CPU time is the median of its speed-scaled
    samples; ``wall_s`` and ``cpu_s`` sum those medians over the commands."""
    setup_once = setup_runner(wl, seed, work, tally, runner.speed)
    rounds = wl.rounds(seconds)
    iterations, setup = [], []
    for i in range(1, rounds + 1):
        iterations.append(runner.iteration())
        setup += [setup_once() for _ in range(SETUP_SAMPLES * i // rounds - len(setup))]
    runs = {label: [it.runs[label] for it in iterations] for label, _ in wl.commands}
    runs["setup"] = setup
    samples = {
        label: {
            "wall": [r.wall for r in rs],
            "cpu": [r.cpu for r in rs],
            "scale": [r.scale for r in rs],
            "rss_mb": [r.rss_mb for r in rs],
        }
        for label, rs in runs.items()
    }

    def scaled_median(label, what):
        return statistics.median(r.scale * getattr(r, what) for r in runs[label])

    wall = sum(scaled_median(label, "wall") for label, _ in wl.commands)
    metrics = {
        "wall_s": wall,
        "acc_per_s": wl.length * wl.passes / wall,
        "cpu_s": sum(scaled_median(label, "cpu") for label, _ in wl.commands),
        "peak_rss_mb": max(r.rss_mb for label, _ in wl.commands for r in runs[label]),
        "setup_s": scaled_median("setup", "wall"),
    }
    return metrics, samples


def measure_layers(rec: Recorder, trace, wl: Workload, seed: int, tally: Tally):
    """Time each layer's public calls in-process; returns (metrics, CSV per label, facts)."""
    from ehcsim import (
        CacheGeometry, MinSampler, analyze, compare, compute_next_use,
        per_block_prediction_error, per_region_prediction_error, run_policy,
        simulate_min, victim_quality,
    )

    geom = CacheGeometry(wl.sets, wl.ways)
    m: dict[str, float] = {}

    def timed(name, layer, fn, *args, **kwargs):
        with rec.span(name, layer) as s:
            out = fn(*args, **kwargs)
        m[f"{name}_s"] = duration(s)
        return out

    kernel_hits = {}
    for p in POLICIES:
        ks, _, _ = timed(f"kernels.{p}", "kernels", run_policy, trace, p, geom, seed=seed, backend="kernel")
        es, _, _ = timed(f"engine.{p}", "engine", run_policy, trace, p, geom, seed=seed, backend="reference")
        got = [(s.hits, s.misses, s.replacements_total, s.replacements_no_averse) for s in (ks, es)]
        tally.record(f"kernel vs reference engine, {p}",
                     [] if got[0] == got[1] else [f"kernel {got[0]} != reference {got[1]}"])
        kernel_hits[p] = ks.hits
        m[f"sim.{p}.misses"] = es.misses
        if p in ("hawkeye", "ehc"):
            m[f"sim.{p}.no_averse"] = es.replacements_no_averse
    _, events, _ = timed("engine.ehc_events", "engine", run_policy, trace, "ehc", geom, seed=seed,
                         record_events=True)

    sampler = MinSampler(geom)
    addrs, pcs = trace.addr.tolist(), trace.pc.tolist()
    with rec.span("sampler.observe", "sampler") as s:
        for a, pc in zip(addrs, pcs):
            sampler.observe(geom.set_index(a), geom.tag(a), a, pc)
    m["sampler.observe_s"] = duration(s)
    m["sampler.sampled"] = sampled = sampler.cold + sampler.hit + sampler.miss
    m["sampler.optgen_hit_ratio"] = sampler.hit / sampled if sampled else 0.0

    timed("minoracle.next_use", "minoracle", compute_next_use, trace, geom)
    byp, _, residencies, _ = timed("minoracle.min_bypass", "minoracle", simulate_min, trace, geom, bypass=True)
    nob, _, _, _ = timed("minoracle.min_nobypass", "minoracle", simulate_min, trace, geom, bypass=False)
    with rec.span("minoracle.prediction_error", "minoracle") as s:
        per_block_prediction_error(residencies)
        per_region_prediction_error(residencies)
    m["minoracle.prediction_error_s"] = duration(s)
    timed("minoracle.victim_quality", "minoracle", victim_quality, events, trace, geom)
    m["minoracle.bypasses"] = byp.per_policy["bypasses"]
    m["minoracle.residencies"] = len(residencies)
    problems = [f"{p}: {h} hits > MIN-bypass {byp.hits}" for p, h in kernel_hits.items() if h > byp.hits]
    if byp.hits < nob.hits:
        problems.append(f"MIN-bypass {byp.hits} hits < MIN-no-bypass {nob.hits}")
    tally.record("MIN bounds", problems)

    report = timed("analysis.compare", "analysis", compare, trace, POLICIES, geom, seed=seed)
    reports = timed("analysis.analyze", "analysis", lambda: [
        analyze(trace, kind, policy="ehc", geom=geom, seed=seed) for kind in ANALYZE_REPORTS
    ])
    texts = timed("analysis.to_csv", "analysis", lambda: [r.to_csv() for r in (report, *reports)])
    csv = dict(zip(("compare", *ANALYZE_REPORTS), texts))
    return m, csv, Facts(len(trace), wl.ways, byp.hits)


def top_level_time(spans, layer: str) -> float:
    """Seconds in ``layer`` spans not nested in another span of that layer."""
    by_id = {s["id"]: s for s in spans}
    return sum(
        duration(s) for s in spans
        if s["layer"] == layer and by_id.get(s["parent"], {}).get("layer") != layer
    )


def run_traced(runner: Runner, rec: Recorder, trace, wl: Workload, seed: int, tally: Tally):
    m, in_process_csv, facts = measure_layers(rec, trace, wl, seed, tally)
    tally.record("exact layer counts", check_exact_layers(m, runner.expected))
    runner.facts = facts
    gen = {s["name"]: duration(s) for s in rec.spans if s["layer"] == "trace"}
    m |= {f"{name}_s": secs for name, secs in gen.items()}

    untraced, traced = [], []
    for i in range(TRACED_PAIRS):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if is_traced else untraced).append(runner.iteration(traced=is_traced))
    in_process_rows = parse_report(in_process_csv["compare"])["compare"]
    for label, data in runner.first_csv.items():
        if label in in_process_csv:
            same = data.decode() == in_process_csv[label]
        else:  # a one-policy run: the counts of its row in the in-process compare
            policy = label.removeprefix("run-")
            row = parse_report(data.decode())["run"][policy]
            same = all(row[c] == in_process_rows[policy][c] for c in SHARED_COLUMNS)
        tally.record(f"CLI vs in-process {label}", [] if same else ["CSV differs"])

    per_iteration = [self_times(it.spans) for it in traced]
    layers = sorted({layer for st in per_iteration for layer in st})
    self_s = {layer: statistics.median(st.get(layer, 0.0) for st in per_iteration) for layer in layers}
    for layer in SELF_LAYERS:
        m[f"self.{layer}_s"] = self_s.get(layer, 0.0)
    m["self.sim_s"] = sum(self_s.get(layer, 0.0) for layer in SIM_LAYERS)
    m["cli.overhead_s"] = statistics.median(it.wall - top_level_time(it.spans, "analysis") for it in traced)
    m["tracing.overhead_s"] = (statistics.median(it.wall for it in traced)
                               - statistics.median(it.wall for it in untraced))
    samples = {
        "self_s": self_s,
        "untraced_wall_s": [it.wall for it in untraced],
        "traced_wall_s": [it.wall for it in traced],
    }
    spans = rec.spans + [dict(s, iteration=k) for k, it in enumerate(traced) for s in it.spans]
    return m, samples, spans


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_ehcsim() -> None:
    """Import ehcsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "ehcsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ehcsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ehcsim

    if not Path(ehcsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported ehcsim from {ehcsim.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The benchmark and its children share one core, so SpeedProbe times
    # the core the children run on.
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[-1]})
    load_ehcsim()
    name, wl, seed = args.workload, WORKLOADS[args.workload], args.seed
    expected = expected_counts(name, wl, seed)
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        tally = Tally()
        rec = Recorder(name, "bench")
        trace_path = work / "workload.trace"
        trace = generate_trace(wl, wl.length, seed, trace_path, rec)
        env = environment(name, wl, seed, trace, trace_path, work, cores)
        runner = Runner(name, wl, seed, trace_path, work, None, expected, tally, SpeedProbe())
        if args.trace:
            metrics, samples, spans = run_traced(runner, rec, trace, wl, seed, tally)
            units = per_layer_units()
            with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w") as fh:
                json.dump(spans, fh)
        else:
            simulates = any(label == "compare" or label.startswith("run-") for label, _ in wl.commands)
            hits = min_bypass_hits(trace, wl) if simulates else None
            runner.facts = Facts(len(trace), wl.ways, hits)
            metrics, samples = run_end_to_end(runner, wl, seed, args.seconds, work, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "samples": samples, **result}, fh, indent=1)

    print(f"ehcsim benchmark  workload={name}  seed={seed}  trace={args.trace}")
    print("host time only; the model is unvalidated (no hardware reference), so no error figure")
    for k, u in units.items():
        print(f"  {k:<30} {metrics[k]:>14.6g} {u}")
    if args.trace:
        print("  self time per layer (median of traced runs): " + ", ".join(
            f"{layer} {secs:.4g} s" for layer, secs in samples["self_s"].items()))
    else:
        for label, got in samples.items():
            print(f"  {label} raw wall s ({len(got['wall'])} runs): " + " ".join(f"{w:.4f}" for w in got["wall"]))
            print(f"  {label} speed scale: " + " ".join(f"{x:.4f}" for x in got["scale"]))
    print(f"  error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
