"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call at a layer boundary: name, layer, start, end, the
id of the span that was open when it started, and the workload. Spans stay
in memory until :meth:`Recorder.dump`. Times come from ``time.perf_counter``
and are compared only within one process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Recorder:
    def __init__(self, workload: str, process: str):
        self.workload = workload
        self.process = process
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        span = {
            "id": f"{self.process}:{len(self.spans)}",
            "name": name,
            "layer": layer,
            "parent": self._open[-1]["id"] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, layer: str, label_arg: int | None = None):
        """Replace ``owner.attr`` by a version that records a span per call.

        ``label_arg`` names the positional argument saved as the span's
        ``arg`` (a policy name, a report kind). Returns a function that puts
        the original back.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = {}
            if label_arg is not None and len(args) > label_arg:
                value = args[label_arg]
                extra["arg"] = value if isinstance(value, str) else type(value).__name__
            with self.span(f"{layer}.{attr}", layer, **extra):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    def instrument_ehcsim(self):
        """Wrap the public calls each ehcsim layer makes on the CLI's path.

        Targets are patched where their caller looks them up (the CLI and
        the analysis module import names directly). Returns an undo function.
        """
        from ehcsim import _kernels, analysis, cli, minoracle, runner

        targets = [
            (cli, "load_trace", "trace", None),
            (cli, "compare", "analysis", None),
            (cli, "analyze", "analysis", 1),
            (cli, "run_report", "analysis", 1),
            (analysis, "run_policy", "runner", 1),
            (_kernels, "run", "kernels", 1),
            (runner, "simulate", "engine", 1),
            (minoracle, "compute_next_use", "minoracle", None),
            (minoracle, "simulate_min", "minoracle", None),
            (minoracle, "victim_quality", "minoracle", None),
            (minoracle, "per_block_prediction_error", "minoracle", None),
            (minoracle, "per_region_prediction_error", "minoracle", None),
            (analysis.Report, "write", "report", None),
        ]
        undo = [self.wrap(*t) for t in targets]

        def restore():
            for fn in reversed(undo):
                fn()

        return restore

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict[str, float]:
    """Seconds per layer spent in its own spans, minus their child spans.

    Children of one span never overlap (one thread), so the part of its
    interval they cover is the sum of their durations.
    """
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out: dict[str, float] = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + duration(s) - child_time.get(s["id"], 0.0)
    return out


def backends_by_policy(spans) -> dict[str, str]:
    """Which backend each ``runner.run_policy`` span dispatched to."""
    by_id = {s["id"]: s for s in spans}
    out = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "runner.run_policy" and "arg" in parent:
            if s["layer"] in ("kernels", "engine"):
                out[parent["arg"]] = "kernel" if s["layer"] == "kernels" else "reference"
    return out
