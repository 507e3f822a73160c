"""End-to-end benchmark of figure regeneration: cold ``repro run`` processes.

Driver mode measures one workload for a fixed time::

    python3 benchmarks/e2e/run.py --workload xbar_cold --seed 3 \\
        --seconds 25 --trace 0

and prints, as its last stdout line, one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced pass
(``--trace 1``).  Set mode runs every workload in rotated rounds, then one
traced pass per workload, and writes a results file and a Chrome trace::

    python3 benchmarks/e2e/run.py --seed 1

The load is a closed loop with one client: each ``repro`` process starts
after the previous one exited.  Every printed table is checked against
the committed reference digests (``reference.json``) for seeds that have
them, and against the run's own first repetition otherwise.  Set mode
exits 0 only when every check passed; driver mode reports the checks in
the JSON line.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import harness

CHILD = harness.HERE / "child.py"
TRACER = harness.HERE / "tracer.py"
READY = "e2e-ready "
DONE = "e2e-done "

#: Seconds after which a hung child is killed (a run must end in 180 s).
CHILD_TIMEOUT = 150.0

#: Set-up samples a run collects at least, topping up its invocations'
#: set-ups with bare import probes (a traced run always probes once).
MIN_SETUP_SAMPLES = 3

#: Rounds of a set: every workload once per round.
SET_ROUNDS = 8


@dataclass
class Process:
    """One finished child: its exit, timings, peak memory and output.

    ``setup_s`` runs from spawn to ``repro.cli`` imported, ``exit_s``
    from ``main`` returned to the reap (interpreter teardown); each is
    None when the child printed no stamp.
    """

    returncode: int
    wall_s: float
    setup_s: Optional[float]
    exit_s: Optional[float]
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> Dict[str, str]:
    """The environment of every child: ``src`` importable, knobs removed."""
    env = {key: value for key, value in os.environ.items()
           if key not in harness.SCRUBBED_ENV}
    src = str(harness.ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def spawn(script: Path, args: Sequence[str], env: Dict[str, str],
          scratch: Path) -> Process:
    """Run ``python script args`` to completion and time it.

    Wall time runs from just before the spawn to the reap; ``os.wait4``
    returns the child's own peak RSS.  The child's ``e2e-ready`` and
    ``e2e-done`` stamps (CLOCK_MONOTONIC, like ours) mark the end of
    set-up and the start of exit.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, str(script), *args],
                                 stdout=out, stderr=err, env=env,
                                 cwd=harness.ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT, child.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    lines = stderr.splitlines() or [""]
    ready = (float(lines[0][len(READY):]) if lines[0].startswith(READY)
             else None)
    done = (float(lines[-1][len(DONE):]) if lines[-1].startswith(DONE)
            else None)
    return Process(
        child.returncode, end - start,
        None if ready is None else ready - start,
        None if done is None else end - done,
        usage.ru_maxrss / 1024.0, stdout, stderr)


@dataclass
class WorkloadRun:
    """Repetitions of one workload: samples, digests and failures."""

    workload: harness.Workload
    seed: int
    env: Dict[str, str]
    scratch: Path
    expected: Optional[List[str]] = None
    reference_series: Optional[str] = None
    samples: Dict[str, List[float]] = field(default_factory=lambda: {
        "wall_s": [], "peak_rss_mb": [], "setup_s": [], "exit_s": []})
    probes: List[dict] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    series_sha256: Optional[str] = None

    def _cache(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))

    def _invoke(self, cache: Path) -> List[Process]:
        return [spawn(CHILD, harness.invocation_argv(args, self.seed, cache),
                      self.env, self.scratch)
                for args in self.workload.invocations]

    def _check(self, label: str, returncodes: Sequence[int],
               digests: Sequence[str]) -> None:
        """Count attempts and failures; the first group checked sets the
        expected tables when the seed has no reference."""
        if self.expected is None:
            self.expected = list(digests)
        problems = harness.failed_invocations(returncodes, digests,
                                              self.expected)
        self.attempted += len(returncodes)
        self.failed += len(problems)
        self.problems.extend(f"{self.workload.name} {label} {problem}"
                             for problem in problems)

    def _report_stderr(self, process: Process) -> None:
        if process.returncode != 0:
            sys.stderr.write(process.stderr[-2000:])

    def repetition(self) -> None:
        """One timed repetition: every invocation once, back to back."""
        cache = self._cache()
        processes = self._invoke(cache)
        shutil.rmtree(cache, ignore_errors=True)
        self._check(f"repetition {len(self.samples['wall_s'])}",
                    [p.returncode for p in processes],
                    [harness.table_digest(p.stdout) for p in processes])
        for process in processes:
            self._report_stderr(process)
            if process.setup_s is not None:
                self.samples["setup_s"].append(process.setup_s)
        self.samples["wall_s"].append(sum(p.wall_s for p in processes))
        self.samples["peak_rss_mb"].append(max(p.rss_mb for p in processes))
        self.samples["exit_s"].append(sum(p.exit_s or 0.0 for p in processes))

    def warm_up(self) -> None:
        """One untimed bare import, so that the first repetition finds the
        interpreter's and the libraries' files in the page cache."""
        process = spawn(CHILD, ["--probe"], self.env, self.scratch)
        self._report_stderr(process)

    def probe(self, count: int) -> None:
        """Bare ``import repro.cli`` processes: set-up samples and cli.*."""
        for _ in range(count):
            process = spawn(CHILD, ["--probe"], self.env, self.scratch)
            if process.returncode != 0 or process.setup_s is None:
                self._report_stderr(process)
                self.problems.append("import probe failed")
                continue
            self.samples["setup_s"].append(process.setup_s)
            self.probes.append(json.loads(process.stdout))

    def traced(self, trace_path: Path) -> None:
        """The untraced and traced in-process passes; fills :attr:`layers`."""
        cache = self._cache()
        out = self.scratch / "layers.json"
        process = spawn(TRACER, [
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--cache-dir", str(cache), "--out", str(out),
            "--trace", str(trace_path)], self.env, self.scratch)
        if process.returncode != 0:
            self._report_stderr(process)
            self.problems.append(f"{self.workload.name} traced pass exited "
                                 f"{process.returncode}")
            return
        passes = json.loads(out.read_text(encoding="utf-8"))
        untraced, traced = passes["untraced"], passes["traced"]
        for label, result in passes.items():
            self._check(f"{label} pass", result["returncodes"],
                        result["tables"])
        self.series_sha256 = traced["series_sha256"]
        for label, expected in (("untraced pass", untraced["series_sha256"]),
                                ("reference", self.reference_series)):
            if expected is not None and self.series_sha256 != expected:
                self.problems.append(
                    f"{self.workload.name} traced series_sha256 "
                    f"{self.series_sha256} != {label} {expected}")
        layers = traced["layers"]
        main_s = layers["cli.main_s"]
        for name in harness.LAYER_SHARES:
            layers[f"{name}_pct"] = 100.0 * layers[f"{name}_s"] / main_s
        if self.probes:
            layers["cli.import_s"] = statistics.median(
                probe["import_s"] for probe in self.probes)
            layers["cli.modules_loaded"] = self.probes[0]["modules"]
            layers["cli.heavy_modules"] = len(self.probes[0]["heavy"])
        layers["cli.exit_s"] = statistics.median(self.samples["exit_s"])
        layers["trace.overhead"] = main_s / untraced["main_s"] - 1.0
        self.layers = layers

    def e2e(self) -> Dict[str, dict]:
        """Each end-to-end metric: unit, samples, median, quartiles, n."""
        return {name: {"unit": unit, "samples": self.samples[name],
                       **harness.summarize(self.samples[name])}
                for name, unit in harness.E2E_METRICS.items()}

    def record(self) -> dict:
        return {"e2e": self.e2e(), "attempted": self.attempted,
                "failed": self.failed,
                "error_rate": self.failed / max(self.attempted, 1),
                "tables": self.expected,
                "series_sha256": self.series_sha256, "layers": self.layers}


def build() -> None:
    """Byte-compile the measured tree so no run pays for it."""
    compileall.compile_dir(str(harness.ROOT / "src"), quiet=1)


def git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=harness.ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(probe: Optional[dict]) -> dict:
    """What a reader needs to judge whether two result files compare."""
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src") if commit else None
    probe = probe or {}
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"), "scipy": probe.get("scipy"),
        "blas": probe.get("blas"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def new_run(name: str, seed: int, env: Dict[str, str], scratch: Path,
            reference: dict) -> WorkloadRun:
    known = reference.get(str(seed), {}).get(name, {})
    return WorkloadRun(harness.WORKLOADS[name], seed, env, scratch,
                       expected=known.get("tables"),
                       reference_series=known.get("series_sha256"))


def print_report(runs: Dict[str, WorkloadRun]) -> None:
    for name, run in runs.items():
        print(f"== {name}: {run.attempted} invocations, {run.failed} failed "
              f"(error_rate {run.failed / max(run.attempted, 1):.3f})")
        for metric, stats in run.e2e().items():
            print(f"  {metric:<12} {stats['median']:10.4f} {stats['unit']:<4}"
                  f" q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}"
                  f"  n {stats['n']}")
        for metric, value in sorted(run.layers.items()):
            print(f"  {metric:<48} {value:.6g}")
        if run.series_sha256:
            print(f"  series_sha256 {run.series_sha256}")
        print(f"  tables {' '.join(run.expected or [])}")


def merge_traces(paths: Dict[str, Path]) -> dict:
    """One Chrome trace with a process track per workload."""
    events: List[dict] = []
    for pid, (name, path) in enumerate(paths.items(), start=1):
        if not path.exists():
            continue
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for event in json.loads(path.read_text(encoding="utf-8"))[
                "traceEvents"]:
            events.append({**event, "pid": pid})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_result(path: Path, mode: str, seed: int,
                 runs: Dict[str, WorkloadRun], rounds: List[dict]
                 ) -> List[str]:
    """Write a results file; return its problems, also printed to stderr."""
    problems = [problem for run in runs.values() for problem in run.problems]
    probes = next((run.probes for run in runs.values() if run.probes), [])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": 1, "mode": mode, "seed": seed,
        "correct": not problems, "problems": problems,
        "environment": environment(probes[0] if probes else None),
        "rounds": rounds,
        "workloads": {name: run.record() for name, run in runs.items()},
    }, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return problems


def run_driver(args, env: Dict[str, str], scratch: Path,
               reference: dict) -> int:
    """Measure one workload for ``args.seconds``; print the JSON line."""
    run = new_run(args.workload, args.seed, env, scratch, reference)
    load_before = os.getloadavg()
    run.warm_up()
    # Repetitions start until the measured time reaches --seconds; the one
    # under way then finishes.  A slow machine gets fewer repetitions, not
    # a longer run.
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        run.repetition()
    run.probe(max(MIN_SETUP_SAMPLES - len(run.samples["setup_s"]),
                  args.trace))
    if args.trace:
        run.traced(harness.WORK_DIR
                   / f"trace-{args.workload}-seed{args.seed}.json")
    rounds = [{"order": [args.workload], "loadavg_before": load_before,
               "loadavg_after": os.getloadavg()}]
    print_report({args.workload: run})
    write_result(harness.WORK_DIR / f"result-{args.workload}-seed{args.seed}"
                 f"-trace{args.trace}.json", "driver", args.seed,
                 {args.workload: run}, rounds)
    if args.trace:
        units = harness.layer_units()
        metrics = {name: {"value": run.layers.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": stats["median"], "unit": stats["unit"]}
                   for name, stats in run.e2e().items()}
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_set(args, env: Dict[str, str], scratch: Path,
            reference: dict) -> int:
    """Every workload in rotated rounds, then a traced pass of each."""
    names = list(harness.WORKLOADS)
    runs = {name: new_run(name, args.seed, env, scratch, reference)
            for name in names}
    runs[names[0]].warm_up()
    rounds = []
    for index in range(SET_ROUNDS):
        order = harness.rotated(names, index)
        before = os.getloadavg()
        for name in order:
            runs[name].repetition()
        rounds.append({"order": order, "loadavg_before": before,
                       "loadavg_after": os.getloadavg()})
        print(f"round {index + 1}/{SET_ROUNDS} done ({' '.join(order)})",
              file=sys.stderr)
    probe_run = runs[names[0]]
    probe_run.probe(MIN_SETUP_SAMPLES)
    traces = {}
    for name, run in runs.items():
        run.probes = probe_run.probes
        traces[name] = scratch / f"trace-{name}.json"
        run.traced(traces[name])
    print_report(runs)
    out = args.out or harness.WORK_DIR / f"result-set-seed{args.seed}.json"
    problems = write_result(out, "set", args.seed, runs, rounds)
    trace_out = out.with_name(out.stem + "-trace.json")
    trace_out.write_text(json.dumps(merge_traces(traces)), encoding="utf-8")
    print(f"results: {out}\ntrace:   {trace_out}")
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end figure-regeneration benchmark.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS),
                        help="driver mode: measure this workload only")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="with --workload: measurement time "
                             "(default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 reports per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="set mode: results file; the Chrome trace "
                             "goes next to it as <name>-trace.json")
    args = parser.parse_args(argv)

    if not (harness.ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro source tree under {harness.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build()
    reference = harness.load_reference()
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=harness.WORK_DIR))
    try:
        if args.workload is not None:
            return run_driver(args, child_env(), scratch, reference)
        return run_set(args, child_env(), scratch, reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
