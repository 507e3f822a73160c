"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list``       — show every registered experiment id;
* ``run``        — regenerate one of the paper's tables, figures or
  studies.  A figure id goes through the parallel sweep runner:
  ``--jobs N`` fans its points out over worker processes and results
  are memoized in the content-addressed cache.  Any other id runs
  through the experiment registry at its fixed seeds, so only
  ``--quality`` applies to it;
* ``cache``      — inspect (``stats [--json]``), empty (``clear``),
  size-bound (``prune --max-size``), or integrity-check
  (``verify [--repair]``) that cache;
* ``simulate``   — run one configuration at a load point;
* ``solve``      — exact Markov-chain analysis of a shared bus;
* ``recommend``  — the Table II advisor over the standard candidates;
* ``blocking``   — the Section V blocking comparison;
* ``faults``     — fault-injected run with availability report and the
  degraded-capacity prediction;
* ``lint``       — the two-pass determinism lint (per-file SIM001-SIM005
  plus whole-program SIM006-SIM010), with ``--format json`` for CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Resource-sharing interconnection networks: a "
                     "reproduction of Wah (1983)."),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiment ids")

    run = commands.add_parser(
        "run", help="regenerate a table, figure or study; every flag but "
                    "--quality applies only to figure ids")
    run.add_argument("exp_id", help="experiment id (see 'list')")
    run.add_argument("--quality", default="fast",
                     choices=["fast", "normal", "full"])
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: REPRO_JOBS or 1)")
    run.add_argument("--seed", type=int, default=1,
                     help="master seed for per-point replications")
    run.add_argument("--cache-dir", default=None,
                     help="result cache directory "
                          "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute every point, bypassing the cache")
    run.add_argument("--max-attempts", type=int, default=3,
                     help="executions per point before the sweep fails; "
                          "a point that spends them in the worker pool gets "
                          "one last inline execution (default: 3)")
    run.add_argument("--unit-timeout", type=float, default=None,
                     help="seconds a point may run before it counts as "
                          "hung and its worker pool is recycled; needs "
                          "--jobs 2 or more (default: no timeout)")
    run.add_argument("--plot", action="store_true",
                     help="draw delay figures as an ASCII chart")

    cache = commands.add_parser(
        "cache", help="inspect, clear, prune, or audit the sweep result "
                      "cache")
    cache.add_argument("action", choices=["stats", "clear", "prune",
                                          "verify"])
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory "
                            "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    cache.add_argument("--max-size", type=float, default=None, metavar="MB",
                       help="prune: evict least-recently-used entries "
                            "until the cache fits in this many megabytes")
    cache.add_argument("--repair", action="store_true",
                       help="verify: quarantine corrupted entries and "
                            "evict unverifiable legacy-format ones")
    cache.add_argument("--json", action="store_true",
                       help="stats: emit machine-readable JSON for "
                            "dashboards instead of the text report")

    simulate = commands.add_parser(
        "simulate", help="simulate one configuration at a load point")
    simulate.add_argument("config", help="triplet, e.g. '16/1x16x16 OMEGA/2'")
    simulate.add_argument("--rho", type=float, default=0.5,
                          help="traffic intensity on the paper's axis")
    simulate.add_argument("--ratio", type=float, default=0.1,
                          help="mu_s / mu_n")
    simulate.add_argument("--horizon", type=float, default=30_000.0)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--arbitration", default="priority",
                          choices=["priority", "random", "fifo"])

    solve = commands.add_parser(
        "solve", help="exact shared-bus Markov analysis")
    solve.add_argument("arrival", type=float, help="aggregate arrival rate")
    solve.add_argument("transmission", type=float, help="mu_n")
    solve.add_argument("service", type=float, help="mu_s")
    solve.add_argument("resources", type=int, help="resources on the bus")
    solve.add_argument("--method", default="matrix-geometric",
                       choices=["matrix-geometric", "truncated-direct",
                                "stage-recursion"])

    recommend = commands.add_parser(
        "recommend", help="Table II advisor over the standard candidates")
    recommend.add_argument("--resource-cost", type=float, required=True,
                           help="cost of one resource in crosspoints")
    recommend.add_argument("--ratio", type=float, default=0.1)
    recommend.add_argument("--rho", type=float, default=0.8)

    blocking = commands.add_parser(
        "blocking", help="Section V blocking comparison")
    blocking.add_argument("--size", type=int, default=8)
    blocking.add_argument("--trials", type=int, default=200)

    faults = commands.add_parser(
        "faults", help="fault-injected simulation with availability report")
    faults.add_argument("config", help="triplet, e.g. '16/1x16x16 OMEGA/2'")
    faults.add_argument("--kind", default="resource",
                        choices=["resource", "bus", "cell", "interchange"],
                        help="component class to fail")
    faults.add_argument("--mttf", type=float, default=1000.0,
                        help="mean time to failure per component")
    faults.add_argument("--mttr", type=float, default=100.0,
                        help="mean time to repair per component")
    faults.add_argument("--rho", type=float, default=0.5,
                        help="traffic intensity on the paper's axis")
    faults.add_argument("--ratio", type=float, default=0.1,
                        help="mu_s / mu_n")
    faults.add_argument("--max-retries", type=int, default=5)
    faults.add_argument("--task-timeout", type=float, default=None,
                        help="abandon queued tasks older than this")
    faults.add_argument("--horizon", type=float, default=30_000.0)
    faults.add_argument("--seed", type=int, default=1)

    lint = commands.add_parser(
        "lint", help="two-pass determinism lint (SIM001-SIM010) over the "
                     "source tree")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", dest="lint_format", default="text",
                      choices=["text", "json"],
                      help="report format (json is stable for CI)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    return parser


def _command_list(_args) -> int:
    from repro.experiments import EXPERIMENT_IDS
    for exp_id in EXPERIMENT_IDS:
        print(exp_id)
    return 0


def _figure_only_flags(args) -> List[str]:
    """The ``run`` flags other than --quality that ``args`` moved off
    their parser defaults, spelled as on the command line."""
    defaults = vars(build_parser().parse_args(["run", args.exp_id]))
    return [f"--{name.replace('_', '-')}"
            for name, value in vars(args).items()
            if name != "quality" and value != defaults[name]]


def _command_run(args) -> int:
    import time

    from repro.experiments import (
        EXPERIMENT_IDS,
        FIGURE_SPECS,
        figure_series,
        format_series_table,
        run_experiment,
    )
    from repro.runner import ResultCache, SupervisorPolicy, SweepRunner

    if args.exp_id not in FIGURE_SPECS:
        # Non-figure experiments have no point decomposition, nothing
        # cacheable and fixed seeds, so they run through the registry and
        # refuse the figure-only flags, which would have no effect.
        flags = _figure_only_flags(args) if args.exp_id in EXPERIMENT_IDS else []
        if flags:
            verb = "applies" if len(flags) == 1 else "apply"
            print(f"error: {', '.join(flags)} {verb} only to figure ids "
                  f"({', '.join(FIGURE_SPECS)}); {args.exp_id} takes only "
                  f"--quality", file=sys.stderr)
            return 2
        result = run_experiment(args.exp_id, quality=args.quality)
        print(result.report)
        return 0

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    policy = SupervisorPolicy(max_attempts=args.max_attempts,
                              unit_timeout=args.unit_timeout)
    runner = SweepRunner(jobs=args.jobs, cache=cache, supervisor=policy)
    start = time.perf_counter()
    series = figure_series(args.exp_id, quality=args.quality, seed=args.seed,
                           runner=runner)
    elapsed = time.perf_counter() - start
    title = f"{args.exp_id}: {FIGURE_SPECS[args.exp_id].title}"
    print(format_series_table(series, title=title))
    if args.plot:
        from repro.experiments.render import render_series
        print()
        print(render_series(series, title=title))
    outcomes = runner.last_outcomes
    hits = sum(1 for outcome in outcomes if outcome.cached)
    points = sum(len(curve.points) for curve in series)
    print()
    print(f"{points} points ({len(outcomes)} units) in {elapsed:.2f}s "
          f"({runner.effective_jobs} job(s), {hits} cache hit(s), "
          f"cache {'off' if cache is None else cache.root})")
    report = runner.last_report
    if not report.clean:
        print(report.format())
    return 0


def _command_cache(args) -> int:
    import math

    from repro.runner import ResultCache
    from repro.runner.cache import format_bytes

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    if args.action == "prune":
        if args.max_size is None or not 0 <= args.max_size < math.inf:
            print("error: cache prune requires a finite --max-size <MB> "
                  ">= 0", file=sys.stderr)
            return 2
        max_bytes = int(args.max_size * 1024 * 1024)
        removed, remaining = cache.prune(max_bytes)
        print(f"removed {removed} cached result(s) from {cache.root} "
              f"({format_bytes(remaining)} remain, "
              f"limit {format_bytes(max_bytes)})")
        return 0
    if args.action == "verify":
        report = cache.verify(repair=args.repair)
        print(report.format())
        return 0 if report.clean else 1
    if args.json:
        import json
        print(json.dumps(cache.stats().as_dict(), indent=2, sort_keys=True))
        return 0
    print(cache.stats().format())
    return 0


def _command_simulate(args) -> int:
    from repro.analysis import workload_at
    from repro.config import SystemConfig
    from repro.core import simulate
    config = SystemConfig.parse(args.config)
    workload = workload_at(args.rho, args.ratio, processors=config.processors)
    result = simulate(config, workload, horizon=args.horizon,
                      warmup=args.horizon * 0.1, seed=args.seed,
                      arbitration=args.arbitration)
    print(f"configuration   : {config}")
    print(f"traffic rho     : {args.rho} (mu_s/mu_n = {args.ratio})")
    print(f"result          : {result}")
    return 0


def _command_solve(args) -> int:
    from repro.markov import solve_sbus
    solution = solve_sbus(args.arrival, args.transmission, args.service,
                          args.resources, method=args.method)
    print(f"method                 : {solution.method}")
    print(f"mean queueing delay d  : {solution.mean_delay:.6f}")
    print(f"normalized mu_s * d    : {solution.normalized_delay:.6f}")
    print(f"mean queue length      : {solution.mean_queue_length:.6f}")
    print(f"bus utilization        : {solution.bus_utilization:.6f}")
    print(f"resource utilization   : {solution.resource_utilization:.6f}")
    return 0


def _command_recommend(args) -> int:
    from repro.analysis import CostModel, recommend
    from repro.analysis.selection import classify
    from repro.analysis.sweep import workload_at
    from repro.config import SystemConfig
    from repro.experiments.figures import TABLE2_CANDIDATES
    candidates = [SystemConfig.parse(text) for text in TABLE2_CANDIDATES]
    workload = workload_at(args.rho, args.ratio)
    model = CostModel(resource_unit_cost=args.resource_cost,
                      bus_tap_cost=0.25)
    recommendation = recommend(candidates, workload, model)
    print(f"build: {recommendation.winner.config}  "
          f"[{classify(recommendation.winner.config).value}]")
    for evaluation in recommendation.ranking:
        marker = "*" if evaluation is recommendation.winner else " "
        print(f" {marker} {str(evaluation.config):<22} "
              f"cost {evaluation.cost:>8.1f}  d = {evaluation.mean_delay:.4f}")
    return 0


def _command_blocking(args) -> int:
    from repro.analysis import blocking_comparison, full_permutation_blocking
    from repro.errors import ConfigurationError
    from repro.experiments import format_blocking_table
    request_sizes = [k for k in (3, 4, 5, 6) if k <= args.size]
    if not request_sizes:
        raise ConfigurationError(
            f"--size must be at least 3 (the smallest request size), "
            f"got {args.size}")
    points = blocking_comparison(size=args.size,
                                 request_sizes=request_sizes,
                                 trials=args.trials)
    full = full_permutation_blocking(size=args.size, trials=args.trials)
    print(format_blocking_table(points, full=full))
    return 0


def _command_faults(args) -> int:
    import math

    from repro.analysis import workload_at
    from repro.analysis.degraded import degraded_system_metrics
    from repro.config import SystemConfig
    from repro.core import simulate
    from repro.faults import MODEL_CLASSES, FaultConfig, RetryPolicy

    model = MODEL_CLASSES[args.kind](mttf=args.mttf, mttr=args.mttr)
    retry = RetryPolicy(
        max_retries=args.max_retries,
        task_timeout=(math.inf if args.task_timeout is None
                      else args.task_timeout))
    config = SystemConfig.parse(args.config).with_faults(
        FaultConfig(models=(model,), retry=retry))
    workload = workload_at(args.rho, args.ratio, processors=config.processors)
    result = simulate(config, workload, horizon=args.horizon,
                      warmup=args.horizon * 0.1, seed=args.seed)
    report = result.availability
    print(f"configuration    : {config}")
    print(f"fault model      : {args.kind} mttf={args.mttf} mttr={args.mttr} "
          f"(A = {model.availability:.4f})")
    print(f"result           : {result}")
    print(f"throughput       : {result.throughput:.4f} tasks/time")
    print(f"failures         : {report.total_failures} "
          f"(downtime {report.total_downtime:.1f})")
    print(f"observed mttf    : {report.observed_mttf(args.kind):.1f}")
    print(f"observed mttr    : {report.observed_mttr(args.kind):.1f}")
    print(f"capacity offered : {report.time_weighted_capacity():.4f}")
    if args.kind == "resource":
        prediction = degraded_system_metrics(config, workload)
        print(f"degraded model   : throughput {prediction.throughput:.4f}, "
              f"E[resources up] {prediction.expected_resources_up:.2f}, "
              f"P(port saturated) {prediction.saturated_probability:.3g}")
    return 0


def _command_lint(args) -> int:
    from repro.lint import ALL_RULES, format_json, format_text, lint_paths

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.lint_format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    return 1 if findings else 0


_COMMANDS = {
    "list": _command_list,
    "run": _command_run,
    "cache": _command_cache,
    "simulate": _command_simulate,
    "solve": _command_solve,
    "recommend": _command_recommend,
    "blocking": _command_blocking,
    "faults": _command_faults,
    "lint": _command_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
