"""Metrics, CSV reports, and the experiment drivers behind the CLI.

Every report makes its runs, MIN's too, in one call of :func:`_simulate`,
which picks the backend once and computes at most one next-use column for
them. On the native kernel none imports numpy or the MIN oracle, so a
report runs as well on the :class:`~ehcsim._kernels.Columns` of the kernel's
trace loader as on a :class:`~ehcsim.trace.Trace`; the reference engine and
the numpy oracle (:mod:`ehcsim.minoracle`) give the same numbers.
"""

from __future__ import annotations

import io

from .errors import DataError, InternalInvariantError, UsageError, ZeroInstructions
from .params import ERROR_BUCKETS
from .runner import DEFAULT_SEED, POLICY_NAMES, check_policy, pick_backend
# Re-exported: the benchmark's backend probe calls and times analysis.run_policy.
from .runner import run_policy  # noqa: F401
from .values import CacheGeometry, DEFAULT_GEOMETRY, SimStats

TYPE_CHECKING = False  # typing's constant; a kernel run never imports typing
if TYPE_CHECKING:
    from ._kernels import Columns, EventLog
    from .trace import Trace


def mpki(stats: SimStats, instruction_count: int) -> float:
    """Misses per thousand instructions."""
    if instruction_count <= 0:
        raise ZeroInstructions("instruction count must be positive")
    return stats.misses * 1000.0 / instruction_count


def mpki_reduction(policy_mpki: float, lru_mpki: float) -> float:
    """Fractional MPKI reduction relative to LRU (0 when LRU never misses)."""
    if lru_mpki == 0.0:
        return 0.0
    return 1.0 - policy_mpki / lru_mpki


def no_averse_fraction(stats: SimStats) -> float:
    """Share of replacements made while no cache-averse block was present."""
    if stats.replacements_total == 0:
        return 0.0
    return stats.replacements_no_averse / stats.replacements_total


def mean_rank(hist) -> float:
    """Mean rank of a victim-rank histogram (0 when it is empty)."""
    counts = [int(c) for c in hist]
    total = sum(counts)
    if total == 0:
        return 0.0
    return sum(rank * count for rank, count in enumerate(counts)) / total


def _fmt(x) -> str:
    """A cell: an integer, Python's or numpy's, exactly in decimal; any
    other number to six significant digits."""
    if hasattr(x, "__index__"):
        return str(x.__index__())
    return "%.6g" % float(x)


def _number(cell: str) -> int | float:
    """The value of a cell that :func:`_fmt` wrote: an int for an integer."""
    return int(cell) if cell.lstrip("-").isdecimal() else float(cell)


class Report:
    """Named tables of (label, numeric columns) with CSV in/out.

    The CSV layout is line-oriented: ``# key=value`` provenance comments,
    then per table one ``# table=<name>`` marker, a header row, and data
    rows whose first field is a label and the rest numbers: integers (a
    count, or a bool as 0 or 1) exactly, and others to six significant
    digits. Emission is deterministic (insertion order).
    """

    def __init__(self, meta: dict | None = None):
        self.meta: dict[str, str] = {k: str(v) for k, v in (meta or {}).items()}
        self.tables: dict[str, tuple[list[str], list[tuple]]] = {}

    def add_table(self, name: str, columns: list[str], rows: list[tuple]) -> None:
        for row in rows:
            if len(row) != len(columns) + 1:
                raise ValueError(f"table {name!r}: row width != column count + 1")
        self.tables[name] = (list(columns), [tuple(r) for r in rows])

    def to_csv(self) -> str:
        out = io.StringIO()
        for k, v in self.meta.items():
            out.write(f"# {k}={v}\n")
        for name, (columns, rows) in self.tables.items():
            out.write(f"# table={name}\n")
            out.write(",".join(["label"] + columns) + "\n")
            for row in rows:
                out.write(",".join([str(row[0])] + [_fmt(x) for x in row[1:]]) + "\n")
        return out.getvalue()

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv())

    @classmethod
    def parse(cls, text: str) -> "Report":
        """The report whose :meth:`to_csv` is ``text``, with an integer cell as
        an int and any other number as a float. Data outside a table, a
        table without a header, a ragged row or a non-number raises DataError."""
        report = cls()
        name, columns, rows = None, None, None

        def close():
            if name is not None:
                if columns is None:
                    raise DataError(f"report CSV: table {name!r} has no header row")
                report.add_table(name, columns, rows)

        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("# table="):
                close()
                name, columns, rows = line[len("# table="):], None, []
            elif line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                report.meta[key] = value
            elif name is not None and columns is None:
                columns = line.split(",")[1:]
            elif name is not None:
                fields = line.split(",")
                try:
                    if len(fields) != len(columns) + 1:
                        raise ValueError(f"{len(fields)} fields under {len(columns) + 1} columns")
                    rows.append(tuple([fields[0]] + [_number(x) for x in fields[1:]]))
                except ValueError as e:
                    raise DataError(f"report CSV: table {name!r}: {e}") from None
            else:
                raise DataError("report CSV: data before any table header")
        close()
        return report


def _base_meta(geom: CacheGeometry, seed: int) -> dict:
    return {
        "seed": seed,
        "sets": geom.num_sets,
        "ways": geom.associativity,
        "block_bits": geom.block_offset_bits,
    }


def _simulate(trace: Trace | Columns, runs: list, geom: CacheGeometry, seed: int):
    """The backend :func:`~ehcsim.runner.pick_backend` picks, and its ``run``
    result for each ``(name, keywords)`` of ``runs`` in order; ``rank=True``
    asks for victim ranks. MIN (``"min"``, so check other names first) and
    every ranked run share one next-use column, made only when one needs it."""
    lib = pick_backend("auto", geom)
    uses = [name == "min" or keywords.get("rank", False) for name, keywords in runs]
    next_use = lib.next_use(trace, geom) if any(uses) else None
    return lib, [lib.run(trace, name, geom, seed, next_use=next_use if use else None,
                         **{k: v for k, v in keywords.items() if k != "rank"})
                 for (name, keywords), use in zip(runs, uses)]


def run_report(
    trace: Trace | Columns,
    policy: str,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    seed: int = DEFAULT_SEED,
    record_events: bool = False,
) -> tuple[Report, SimStats, EventLog | None]:
    """Single-policy run: stats table plus any per-policy counters."""
    check_policy(policy)
    _, [(stats, events, *_)] = _simulate(trace, [(policy, {"record_events": record_events})],
                                         geom, seed)
    report = Report(_base_meta(geom, seed) | {"policy": policy})
    report.add_table(
        "run",
        ["accesses", "hits", "misses", "mpki", "no_averse_fraction"],
        [(
            policy,
            stats.accesses,
            stats.hits,
            stats.misses,
            mpki(stats, trace.instruction_count),
            no_averse_fraction(stats),
        )],
    )
    if stats.per_policy:
        report.add_table(
            "counters",
            ["value"],
            [(k, v) for k, v in sorted(stats.per_policy.items())],
        )
    return report, stats, events


def compare(
    trace: Trace | Columns,
    policies,
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    seed: int = DEFAULT_SEED,
    events: bool = False,
) -> Report:
    """Side-by-side policy table with MPKI reduction against LRU.

    LRU is simulated (and reported) even when absent from ``policies`` so
    the reduction column always has its baseline. With ``events`` the
    victim-quality mean rank column is populated too. Before any run, an
    unknown name raises :class:`~ehcsim.errors.UnknownPolicy` and a repeated
    one :class:`~ehcsim.errors.UsageError`.
    """
    names = list(policies)
    for k, name in enumerate(names):
        check_policy(name)
        if name in names[:k]:
            raise UsageError(f"policy {name!r} is named twice")
    if "lru" not in names:
        names.insert(0, "lru")

    columns = ["hits", "misses", "mpki", "mpki_reduction_vs_lru", "no_averse_fraction"]
    if events:
        columns.append("mean_victim_rank")
    _, results = _simulate(trace, [(name, {"rank": events}) for name in names], geom, seed)

    lru_mpki = mpki(results[names.index("lru")][0], trace.instruction_count)
    report = Report(_base_meta(geom, seed) | {"policies": " ".join(names)})
    rows = []
    for name, (stats, _, _, _, ranks) in zip(names, results):
        m = mpki(stats, trace.instruction_count)
        row = [
            name,
            stats.hits,
            stats.misses,
            m,
            mpki_reduction(m, lru_mpki),
            no_averse_fraction(stats),
        ]
        if events:
            row.append(mean_rank(ranks))
        rows.append(tuple(row))
    report.add_table("compare", columns, rows)
    return report


REPORT_KINDS = ("no-averse", "hitcount-block", "hitcount-region", "victim-quality", "min-gap")


def _histogram_table(report: Report, name: str, labels, hist) -> None:
    counts = [int(count) for count in hist]
    total = sum(counts)
    rows = [
        (label, count, (count / total if total else 0.0))
        for label, count in zip(labels, counts)
    ]
    report.add_table(name, ["count", "fraction"], rows)


def analyze(
    trace: Trace | Columns,
    kind: str,
    policy: str = "ehc",
    geom: CacheGeometry = DEFAULT_GEOMETRY,
    seed: int = DEFAULT_SEED,
) -> Report:
    """Replacement-quality instruments, one report kind at a time.

    ``no-averse``: how often the policy replaced with no averse candidate.
    ``hitcount-block``/``hitcount-region``: prediction-error histograms of
    per-residency hit counts under offline MIN. ``victim-quality``: rank of
    the policy's victims by next use. ``min-gap``: the policy's miss counts
    next to both MIN variants.
    """
    if kind not in REPORT_KINDS:
        raise UsageError(f"unknown report kind {kind!r}")
    check_policy(policy)
    lib, results = _simulate(trace, {
        "no-averse": [(policy, {})],
        "hitcount-block": [("min", {"bypass": True, "rows": True})],
        "hitcount-region": [("min", {"bypass": True, "rows": True})],
        "victim-quality": [(policy, {"rank": True})],
        "min-gap": [(policy, {}), ("min", {}), ("min", {"bypass": True})],
    }[kind], geom, seed)
    report = Report(_base_meta(geom, seed) | {"report": kind, "policy": policy})
    if kind == "no-averse":
        [(stats, *_)] = results
        report.add_table(
            "no_averse",
            ["replacements", "no_averse", "fraction"],
            [(
                policy,
                stats.replacements_total,
                stats.replacements_no_averse,
                no_averse_fraction(stats),
            )],
        )
    elif kind in ("hitcount-block", "hitcount-region"):
        [(_, _, _, rows, _)] = results
        hist = lib.prediction_error(trace, geom, rows, by_region=kind == "hitcount-region")
        # "0", "1", "2", "3", "4+": the last bucket holds every larger error.
        last = ERROR_BUCKETS - 1
        labels = (*map(str, range(last)), f"{last}+")
        _histogram_table(report, "prediction_error", labels, hist)
    elif kind == "victim-quality":
        [(_, _, _, _, hist)] = results
        _histogram_table(report, "victim_rank", [str(r) for r in range(len(hist))], hist)
        report.add_table("summary", ["mean_rank"], [(policy, mean_rank(hist))])
    elif kind == "min-gap":
        stats, nobyp, byp = (result[0] for result in results)
        if not byp.misses <= nobyp.misses <= stats.misses:
            raise InternalInvariantError(
                f"MIN misses out of order: {byp.misses} with bypass, {nobyp.misses} "
                f"without, {stats.misses} for {policy}")
        rows = [
            (label, s.hits, s.misses, mpki(s, trace.instruction_count))
            for label, s in ((policy, stats), ("min-nobypass", nobyp), ("min-bypass", byp))
        ]
        report.add_table("min_gap", ["hits", "misses", "mpki"], rows)
    return report
