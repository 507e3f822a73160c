"""Shared vocabulary of the end-to-end benchmark: workloads and statistics.

The benchmark times cold ``repro run`` processes, so everything here is
plain stdlib: the harness process never imports ``repro`` itself.  The
traced pass (:mod:`tracer`) and the compare script import the same
definitions, so a workload means the same invocations everywhere.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark measures (``benchmarks/e2e/..``).
ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

#: Where runs leave caches, traces and result files (git-ignored).
WORK_DIR = HERE / "out"

#: Environment variables that would change what a child computes or where
#: it caches; children never inherit them.
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_CHAOS", "REPRO_CACHE_DIR",
                "REPRO_VARIATE_BLOCK")

#: The line that ends the figure table on stdout; the legend and the
#: timing summary after it are not part of the checked output.
TABLE_END = "(normalized queueing delay"


@dataclass(frozen=True)
class Workload:
    """One workload: ``repro run`` invocations executed back to back.

    Every repetition starts on an empty cache shared by that repetition's
    invocations.
    """

    name: str
    invocations: Tuple[Tuple[str, ...], ...]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("xbar_cold", (("fig7",),)),
    Workload("omega_cold", (("fig12",),)),
    Workload("bus_cold", (("fig4", "--quality", "full"),
                          ("fig5", "--quality", "full"))),
)}


#: End-to-end metrics of the untraced runs: name -> unit.
E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Layers with busy time on every workload, reported in seconds.
LAYER_SECONDS = ("cli.import_s", "cli.main_s", "cli.exit_s",
                 "experiments.plan_s", "runner.run_s", "runner.self_s",
                 "runner.cache.get_many_s", "runner.cache.put_s",
                 "runner.journal.record_s")

#: Layers that some workloads never enter, reported as a share of the
#: traced ``cli.main`` time (``<name>_s`` in the results file).
LAYER_SHARES = ("runner.evaluators.megabatch-figure",
                "runner.evaluators.analytic-point", "markov.solve",
                "sim.engine", "sim.engine_self", "sim.variates.draw",
                "sim.variates.table_build", "sim.rng.block",
                "networks.batched_crossbar.match",
                "networks.batched_omega.route",
                "networks.batched_omega.release")

#: Per-layer counts, equal for equal code and seed.  The results file
#: also holds the runner's units, cache hits, deduped, retries and failed
#: counts and the cache hit ratio, which stay constant (0 or
#: ``experiments.units``) on these workloads, each on an empty cache.
LAYER_COUNTS = (
    "cli.modules_loaded", "cli.heavy_modules", "experiments.units",
    "runner.computed", "runner.cache.probes",
    "runner.cache.puts", "runner.journal.records",
    "runner.evaluators.megabatch-figure.calls",
    "runner.evaluators.analytic-point.calls",
    "runner.evaluators.sweep-point.calls", "markov.solves", "sim.rows",
    "sim.tasks_completed", "sim.variates.draws", "sim.rng.blocks",
    "sim.rng.sources_vectorized", "sim.rng.sources_scalar",
    "networks.batched_crossbar.match_calls",
    "networks.batched_crossbar.grants", "networks.batched_omega.route_calls",
    "networks.batched_omega.waves", "networks.batched_omega.release_calls")

#: Per-layer ratios.
LAYER_RATIOS = ("networks.batched_crossbar.useful_ratio",
                "networks.batched_omega.waves_per_route", "trace.overhead")


def layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: "s" for name in LAYER_SECONDS}
    units.update({f"{name}_pct": "%" for name in LAYER_SHARES})
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    return units


def invocation_argv(args: Sequence[str], seed: int, cache_dir: Path
                    ) -> List[str]:
    """The ``repro`` argv of one invocation: one job, an explicit cache."""
    return ["run", *args, "--seed", str(seed), "--jobs", "1",
            "--cache-dir", str(cache_dir)]


def rotated(names: Sequence[str], round_index: int) -> List[str]:
    """Workload order of one round: rotate by the round number.

    Over ``len(names)`` rounds every workload runs once in every position,
    so slow drift of the machine spreads evenly over the workloads.
    """
    shift = round_index % len(names) if names else 0
    return list(names[shift:]) + list(names[:shift])


def table_text(stdout: str) -> str:
    """The figure table: stdout up to the legend line."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith(TABLE_END):
            break
        lines.append(line)
    return "\n".join(lines).rstrip("\n") + "\n"


def table_digest(stdout: str) -> str:
    """sha256 of :func:`table_text`."""
    return hashlib.sha256(table_text(stdout).encode("utf-8")).hexdigest()


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count, with quartiles as the driver takes them.

    Quartiles follow ``statistics.quantiles(samples, n=4)``; with fewer
    than two samples both quartiles equal the median.
    """
    values = [float(value) for value in samples]
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_reference(path: Optional[Path] = None) -> dict:
    """Committed reference digests: ``{seed: {workload: {...}}}``."""
    path = path or HERE / "reference.json"
    return json.loads(path.read_text(encoding="utf-8"))


def failed_invocations(returncodes: Sequence[int], digests: Sequence[str],
                       expected: Optional[Sequence[str]]) -> List[str]:
    """Why each failing invocation of a group failed.

    An invocation fails when it exits non-zero or prints a table whose
    digest differs from the expected one at its position.
    """
    problems = []
    for index, (code, digest) in enumerate(zip(returncodes, digests)):
        if code != 0:
            problems.append(f"invocation {index} exited {code}")
        elif expected is None or digest != expected[index]:
            problems.append(
                f"invocation {index}: table {digest} != expected "
                f"{None if expected is None else expected[index]}")
    return problems
