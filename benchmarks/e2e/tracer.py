"""Traced in-process pass of one workload: per-layer times, counts, spans.

Usage (``src`` on ``PYTHONPATH``)::

    python tracer.py --workload xbar_cold --seed 1 --cache-dir DIR \\
        --out layers.json [--trace trace.json]

Calls ``repro.cli.main(argv)`` in this process for each invocation of the
workload, in two passes: untraced, then traced.  Each pass gets a fresh
subdirectory of ``DIR`` as its cache.  Nothing in ``repro`` is edited: for
the traced pass the public functions of each layer are replaced, where
callers look them up at call time, by wrappers that time the call.  Coarse layer boundaries become
spans (name, start, end, parent, invocation); the kernels called tens of
thousands of times per run are aggregated into per-parent call counts and
seconds instead.

Each pass reports its table digests, its ``cli.main`` seconds and the
sha256 of the exact ``repr`` of every sweep point ``figure_series``
returned (``series_sha256``); equal hashes show the wrappers change no
result, and the ratio of the ``cli.main`` times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import harness

#: Modules whose functions :func:`install` wraps.
WRAPPED_MODULES = ("repro.analysis.sweep", "repro.experiments.figures",
                   "repro.sim.batched", "repro.networks.batched_omega",
                   "repro.runner")

#: Kernels that run inside another kernel; their time is already part of
#: the enclosing kernel, so a span's self time does not subtract it.
NESTED_KERNELS = ("sim.rng.block",)


class Recorder:
    """Spans and kernel aggregates of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.stack: List[int] = []
        self.invocation = 0
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``(parent span id, kernel) -> [calls, seconds]``.
        self.kernels: Dict[tuple, list] = defaultdict(lambda: [0, 0.0])

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self.stack[-1] if self.stack else None,
                  "invocation": self.invocation, "start": perf_counter(),
                  "end": None}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self.stack.pop()
            self.seconds[name] += record["end"] - record["start"]
            self.counts[name + ".calls"] += 1

    def kernel(self, name: str, seconds: float) -> None:
        aggregate = self.kernels[(self.stack[-1] if self.stack else None,
                                  name)]
        aggregate[0] += 1
        aggregate[1] += seconds
        self.seconds[name] += seconds
        self.counts[name + ".calls"] += 1

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        for (parent, kernel), (_calls, seconds) in self.kernels.items():
            if parent is not None and kernel not in NESTED_KERNELS:
                children[parent] += seconds
        return sum(span["end"] - span["start"] - children[span["id"]]
                   for span in self.spans if span["name"] == name)

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        args_by_span: Dict[int, dict] = defaultdict(dict)
        for (parent, kernel), (calls, seconds) in sorted(
                self.kernels.items(), key=lambda item: str(item[0])):
            if parent is not None:
                args_by_span[parent][f"{kernel}.calls"] = calls
                args_by_span[parent][f"{kernel}.s"] = seconds
        events = [{
            "name": span["name"], "ph": "X", "pid": 1,
            "tid": span["invocation"],
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"],
                     "invocation": span["invocation"],
                     **args_by_span[span["id"]]},
        } for span in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _wrap(owner, attribute: str, make: Callable) -> None:
    original = getattr(owner, attribute)
    setattr(owner, attribute, functools.wraps(original)(make(original)))


def _span(recorder: Recorder, name: str,
          after: Optional[Callable] = None) -> Callable:
    def make(original):
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
            return result
        return wrapper
    return make


def _kernel(recorder: Recorder, name: str,
            after: Optional[Callable] = None) -> Callable:
    def make(original):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = original(*args, **kwargs)
            recorder.kernel(name, perf_counter() - start)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper
    return make


def capture_series(points: List[str]) -> None:
    """Append the ``repr`` line of every sweep point ``figure_series``
    returns to ``points``."""
    import repro.experiments as experiments

    def make(original):
        def wrapper(*args, **kwargs):
            series = original(*args, **kwargs)
            points.extend(repr(point) + "\n"
                          for curve in series for point in curve.points)
            return series
        return wrapper

    _wrap(experiments, "figure_series", make)


def install(recorder: Recorder) -> None:
    """Wrap every traced layer entry point (see the module docstring)."""
    import repro.analysis.sweep as sweep
    import repro.experiments as experiments
    import repro.experiments.figures as figures
    import repro.sim.batched as batched
    from repro.networks.batched_omega import BatchedMultistageRouter
    from repro.runner import ResultCache, SweepJournal, SweepRunner
    from repro.runner.evaluators import EVALUATORS

    counts = recorder.counts

    def count_units(_args, plan) -> None:
        counts["experiments.units"] += len(plan[2])

    def count_report(args, _outcomes) -> None:
        report = args[0].last_report
        counts["runner.units"] += report.total
        counts["runner.computed"] += report.computed
        counts["runner.cache_hits"] += report.cache_hits
        counts["runner.deduped"] += report.deduped
        counts["runner.retries"] += report.retries
        counts["runner.failed"] += len(report.failures)

    def count_probe(args, values) -> None:
        digests = args[1]
        counts["runner.cache.probes"] += len(digests)
        counts["runner.cache.hits"] += sum(
            1 for digest in digests if digest in values)

    def count_solve(_args, _estimate) -> None:
        counts["markov.solves"] += 1

    def count_engine(args, result) -> None:
        counts["sim.rows"] += int(args[0].point_of_row.size)
        counts["sim.tasks_completed"] += sum(
            sum(group) for group in result.completed)

    def count_grants(_args, _kwargs, result) -> None:
        granted = int(result[0].size)
        counts["networks.batched_crossbar.grants"] += granted
        counts["networks.batched_crossbar.useful_calls"] += granted > 0

    block = _kernel(recorder, "sim.rng.block")

    def make_source(original):
        def wrapper(seed, vectorized=True):
            kind = "vectorized" if vectorized else "scalar"
            counts[f"sim.rng.sources_{kind}"] += 1
            return block(original(seed, vectorized))
        return wrapper

    def make_route(original):
        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)
            seconds = 0.0
            waves = 0
            try:
                while True:
                    start = perf_counter()
                    try:
                        wave = next(generator)
                    except StopIteration:
                        break
                    finally:
                        seconds += perf_counter() - start
                    waves += 1
                    yield wave
            finally:
                recorder.kernel("networks.batched_omega.route", seconds)
                counts["networks.batched_omega.waves"] += waves
        return wrapper

    _wrap(experiments, "figure_series",
          _span(recorder, "experiments.figure_series"))
    _wrap(figures, "figure_work_units",
          _span(recorder, "experiments.plan", count_units))
    _wrap(SweepRunner, "run", _span(recorder, "runner.run", count_report))
    _wrap(ResultCache, "get_many",
          _span(recorder, "runner.cache.get_many", count_probe))
    _wrap(ResultCache, "put", _kernel(recorder, "runner.cache.put"))
    _wrap(SweepJournal, "record", _kernel(recorder, "runner.journal.record"))
    for evaluator_id, function in list(EVALUATORS.items()):
        EVALUATORS[evaluator_id] = functools.wraps(function)(
            _span(recorder, f"runner.evaluators.{evaluator_id}")(function))
    _wrap(sweep, "sbus_delay",
          _span(recorder, "markov.sbus_delay", count_solve))
    _wrap(batched.MegaBatchEngine, "run",
          _span(recorder, "sim.engine", count_engine))
    _wrap(batched.VariateTable, "__init__",
          _kernel(recorder, "sim.variates.table_build"))
    _wrap(batched.VariateTable, "draw", _kernel(recorder, "sim.variates.draw"))
    _wrap(batched.VariateTable, "draw_one",
          _kernel(recorder, "sim.variates.draw"))
    _wrap(batched, "uniform_block_source", make_source)
    _wrap(batched, "match_pairs_batch",
          _kernel(recorder, "networks.batched_crossbar.match", count_grants))
    _wrap(BatchedMultistageRouter, "route_broadcast", make_route)
    _wrap(BatchedMultistageRouter, "release_batch",
          _kernel(recorder, "networks.batched_omega.release"))


def layer_metrics(recorder: Recorder, evaluator_ids) -> Dict[str, float]:
    """Per-layer metrics of the pass, named as in the benchmark README."""
    seconds, counts = recorder.seconds, recorder.counts
    probes = counts["runner.cache.probes"]
    engine = seconds["sim.engine"]
    matches = counts["networks.batched_crossbar.match.calls"]
    routes = counts["networks.batched_omega.route.calls"]
    metrics: Dict[str, float] = {
        "cli.main_s": seconds["cli.main"],
        "experiments.plan_s": seconds["experiments.plan"],
        "experiments.units": counts["experiments.units"],
        "runner.run_s": seconds["runner.run"],
        "runner.self_s": recorder.self_seconds("runner.run"),
    }
    for name in ("units", "computed", "cache_hits", "deduped", "retries",
                 "failed"):
        metrics[f"runner.{name}"] = counts[f"runner.{name}"]
    metrics.update({
        "runner.cache.get_many_s": seconds["runner.cache.get_many"],
        "runner.cache.probes": probes,
        "runner.cache.hit_ratio": (counts["runner.cache.hits"] / probes
                                   if probes else 0.0),
        "runner.cache.put_s": seconds["runner.cache.put"],
        "runner.cache.puts": counts["runner.cache.put.calls"],
        "runner.journal.record_s": seconds["runner.journal.record"],
        "runner.journal.records": counts["runner.journal.record.calls"],
    })
    for evaluator_id in sorted(evaluator_ids):
        name = f"runner.evaluators.{evaluator_id}"
        metrics[f"{name}_s"] = seconds[name]
        metrics[f"{name}.calls"] = counts[f"{name}.calls"]
    metrics.update({
        "markov.solve_s": seconds["markov.sbus_delay"],
        "markov.solves": counts["markov.solves"],
        "sim.engine_s": engine,
        "sim.engine_self_s": recorder.self_seconds("sim.engine"),
        "sim.rows": counts["sim.rows"],
        "sim.tasks_completed": counts["sim.tasks_completed"],
        "sim.tasks_per_engine_s": (counts["sim.tasks_completed"] / engine
                                   if engine else 0.0),
        "sim.variates.draw_s": seconds["sim.variates.draw"],
        "sim.variates.draws": counts["sim.variates.draw.calls"],
        "sim.variates.table_build_s": seconds["sim.variates.table_build"],
        "sim.rng.block_s": seconds["sim.rng.block"],
        "sim.rng.blocks": counts["sim.rng.block.calls"],
        "sim.rng.sources_vectorized": counts["sim.rng.sources_vectorized"],
        "sim.rng.sources_scalar": counts["sim.rng.sources_scalar"],
        "networks.batched_crossbar.match_s":
            seconds["networks.batched_crossbar.match"],
        "networks.batched_crossbar.match_calls": matches,
        "networks.batched_crossbar.grants":
            counts["networks.batched_crossbar.grants"],
        "networks.batched_crossbar.useful_ratio": (
            counts["networks.batched_crossbar.useful_calls"] / matches
            if matches else 0.0),
        "networks.batched_omega.route_s":
            seconds["networks.batched_omega.route"],
        "networks.batched_omega.route_calls": routes,
        "networks.batched_omega.waves": counts["networks.batched_omega.waves"],
        "networks.batched_omega.waves_per_route": (
            counts["networks.batched_omega.waves"] / routes
            if routes else 0.0),
        "networks.batched_omega.release_s":
            seconds["networks.batched_omega.release"],
        "networks.batched_omega.release_calls":
            counts["networks.batched_omega.release.calls"],
    })
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=Path,
                        help="Chrome trace file; without it only the "
                             "untraced pass runs")
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main
    from repro.runner.evaluators import EVALUATORS

    # Both passes start with every wrapped module imported, so neither
    # pays for an import the other does not.
    for module in WRAPPED_MODULES:
        importlib.import_module(module)
    workload = harness.WORKLOADS[args.workload]
    points: List[str] = []
    capture_series(points)

    def run_pass(recorder: Recorder, name: str) -> dict:
        cache = args.cache_dir / name
        points.clear()
        tables, returncodes = [], []
        for index, invocation in enumerate(workload.invocations):
            recorder.invocation = index
            stdout = io.StringIO()
            with recorder.span("cli.main"), \
                    contextlib.redirect_stdout(stdout):
                returncodes.append(repro_main(harness.invocation_argv(
                    invocation, args.seed, cache)))
            tables.append(harness.table_digest(stdout.getvalue()))
        return {"returncodes": returncodes, "tables": tables,
                "series_sha256": hashlib.sha256(
                    "".join(points).encode("utf-8")).hexdigest(),
                "main_s": recorder.seconds["cli.main"]}

    result = {"untraced": run_pass(Recorder(), "untraced")}
    if args.trace is not None:
        recorder = Recorder()
        install(recorder)
        result["traced"] = run_pass(recorder, "traced")
        result["traced"]["layers"] = layer_metrics(recorder, EVALUATORS)
        args.trace.write_text(json.dumps(recorder.chrome_trace()),
                              encoding="utf-8")
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
