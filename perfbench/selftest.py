"""Self-test of the benchmark itself.

Short runs must print every metric named in BENCHMARK.json, with its unit:
the end-to-end metrics on every workload, the per-layer metrics on one. A
copy of expected.json with one CLI count changed, and one with one layer
count changed, must each drive error_rate above 0 and the exit code to
non-zero.

Usage: python3 perfbench/selftest.py   (about two minutes)
"""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TAMPERED = ROOT / ".perfbench_work" / "selftest-expected.json"


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--seed", "42", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return (proc, *parse_output(proc.stdout))


def parse_output(stdout: str):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    rate = re.search(r"error_rate (\S+)", stdout)
    return result, float(rate.group(1)) if rate else None


def run_tampered(workload: str, trace: str, tamper) -> tuple[int, dict, float | None]:
    """run.main in-process with a copy of expected.json changed by ``tamper``."""
    expected = json.loads(run.EXPECTED_PATH.read_text())
    tamper(expected["workloads"][workload])
    original = run.EXPECTED_PATH
    TAMPERED.parent.mkdir(exist_ok=True)
    TAMPERED.write_text(json.dumps(expected))
    out = io.StringIO()
    try:
        run.EXPECTED_PATH = TAMPERED
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(run.DEFAULT_SEED),
                             "--seconds", "1", "--trace", trace])
    finally:
        run.EXPECTED_PATH = original
        TAMPERED.unlink()
        try:
            TAMPERED.parent.rmdir()
        except OSError:
            pass
    return (code, *parse_output(out.getvalue()))


def bump_cli_count(entry: dict) -> None:
    rows = next(iter(next(iter(entry["commands"].values())).values()))
    first_row = next(iter(rows.values()))
    first_row[next(iter(first_row))] += 1


def bump_layer_count(entry: dict) -> None:
    entry["layers"][run.EXACT_LAYER_METRICS[0]] += 1


def metric_problems(result: dict, wanted: list[dict]) -> list[str]:
    got = result.get("metrics", {})
    problems = [f"unexpected metric {k}" for k in got if k not in {m["name"] for m in wanted}]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {m['name']} printed as {entry}, unit should be {m['unit']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    runs = [(w["name"], "0", spec["end_to_end"]) for w in spec["workloads"]]
    runs.append((spec["workloads"][0]["name"], "1", spec["per_layer"]))
    for workload, trace, wanted in runs:
        proc, result, rate = run_bench("--workload", workload, "--trace", trace)
        what = f"{workload} --trace {trace}"
        if proc.returncode != 0 or not result.get("correct") or rate != 0:
            failures.append(f"{what}: exit {proc.returncode}, error_rate {rate}\n{proc.stderr[-2000:]}")
        failures += [f"{what}: {p}" for p in metric_problems(result, wanted)]

    workload = spec["workloads"][0]["name"]
    for what, trace, tamper in (("CLI", "0", bump_cli_count), ("layer", "1", bump_layer_count)):
        code, result, rate = run_tampered(workload, trace, tamper)
        if code == 0 or result.get("failed", 0) == 0 or not rate or rate <= 0:
            failures.append(f"tampered expected {what} count: exit {code}, error_rate {rate}")

    for f in failures:
        print(f"selftest: FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
