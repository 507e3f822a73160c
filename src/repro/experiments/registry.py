"""Experiment registry: every table and figure, keyed by id.

Maps the experiment ids of DESIGN.md to runnable entry points, so
``repro run`` and ad-hoc exploration dispatch the same way::

    from repro.experiments import run_experiment
    print(run_experiment("fig4", quality="fast").report)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict

from repro.errors import ConfigurationError
from repro.experiments import figures
from repro.experiments.report import (
    format_blocking_table,
    format_mapping,
    format_rows,
    format_series_table,
)


@dataclass(frozen=True)
class ExperimentResult:
    """What a registered experiment produces."""

    exp_id: str
    description: str
    data: Any
    report: str


def _run_figure(exp_id: str, quality: str) -> ExperimentResult:
    spec = figures.FIGURE_SPECS[exp_id]
    series = figures.figure_series(exp_id, quality=quality)
    return ExperimentResult(
        exp_id=exp_id,
        description=spec.title,
        data=series,
        report=format_series_table(series, title=f"{exp_id}: {spec.title}"),
    )


def _run_fig11(_quality: str) -> ExperimentResult:
    result = figures.fig11_example()
    lines = [f"P{o.source} -> port {o.port} in {o.hops} boxes "
             f"({o.attempts} attempt(s))"
             for o in sorted(result.outcomes.values(), key=lambda o: o.source)]
    lines.append(f"average boxes traversed: {result.average_hops} "
                 f"(paper: {figures.FIG11_EXPECTED_AVERAGE_HOPS})")
    return ExperimentResult(
        exp_id="fig11",
        description="Worked 8x8 Omega scheduling example",
        data=result,
        report="\n".join(lines),
    )


def _run_sec2(_quality: str) -> ExperimentResult:
    data = figures.sec2_mapping_example()
    report = (
        f"good mappings conflict-free: {data['good_mappings_conflict_free']}\n"
        f"bad mappings allocate only: {data['bad_mappings_allocated']} of 3\n"
        f"optimal scheduler allocates: {data['optimal_allocatable']} of 3")
    return ExperimentResult("sec2", "Section II mapping example", data, report)


def _run_blocking(quality: str) -> ExperimentResult:
    trials = {"fast": 150, "normal": 400, "full": 1500}[quality]
    data = figures.blocking_experiment(trials=trials)
    report = format_blocking_table(data["by_request_size"],
                                   full=data["full_permutation"])
    return ExperimentResult("blocking", "Section V blocking probability",
                            data, report)


def _run_sec6(quality: str) -> ExperimentResult:
    horizon = {"fast": 8_000.0, "normal": 30_000.0, "full": 120_000.0}[quality]
    data = figures.sec6_comparison(horizon=horizon)
    lines = [f"{name}: mu_s*d = {value:.4f}" for name, value in data.items()]
    return ExperimentResult("sec6", "Section VI SBUS/3 vs partitioned rivals",
                            data, "\n".join(lines))


def _run_table2(_quality: str) -> ExperimentResult:
    rows = figures.table2_selection()
    return ExperimentResult("table2", "Table II network selection", rows,
                            format_mapping(rows))


def _run_cycles(_quality: str) -> ExperimentResult:
    rows = figures.cycle_time_comparison()
    report = format_rows(
        rows,
        columns=["N", "distributed_crossbar", "centralized_crossbar",
                 "distributed_multistage", "centralized_multistage"],
        title="Scheduling overhead (gate-delay units) for N requests")
    return ExperimentResult("cycles", "Distributed vs centralized overhead",
                            rows, report)


def _run_bottleneck(quality: str) -> ExperimentResult:
    from repro.analysis.sweep import workload_at
    from repro.core import simulate, simulate_centralized
    horizon = {"fast": 8_000.0, "normal": 16_000.0, "full": 60_000.0}[quality]
    workload = workload_at(0.6, 0.1)
    rows = [{"scheduler": "distributed",
             "d": simulate("16/1x16x32 XBAR/1", workload, horizon=horizon,
                           warmup=horizon * 0.1, seed=4,
                           arbitration="fifo").mean_queueing_delay}]
    for overhead in (0.0, 0.2, 1.0):
        result = simulate_centralized("16/1x16x32 XBAR/1", workload,
                                      horizon=horizon, warmup=horizon * 0.1,
                                      scheduling_time=overhead, seed=4)
        rows.append({"scheduler": f"central (delta={overhead})",
                     "d": result.mean_queueing_delay})
    report = format_rows(rows, columns=["scheduler", "d"],
                         title="Section I bottleneck: serial scheduler cost")
    return ExperimentResult("bottleneck",
                            "Centralized scheduling as a bottleneck",
                            rows, report)


def _run_switching(quality: str) -> ExperimentResult:
    from repro.analysis.sweep import workload_at
    from repro.core import simulate, simulate_packet_switched
    horizon = {"fast": 8_000.0, "normal": 12_000.0, "full": 40_000.0}[quality]
    rows = []
    for rho, ratio in ((0.3, 0.1), (0.5, 1.0)):
        workload = workload_at(rho, ratio)
        circuit = simulate("16/1x16x16 OMEGA/2", workload, horizon=horizon,
                           warmup=horizon * 0.1, seed=3)
        packet = simulate_packet_switched("16/1x16x16 OMEGA/2", workload,
                                          horizon=horizon,
                                          warmup=horizon * 0.1, seed=3)
        rows.append({"rho": rho, "ratio": ratio,
                     "circuit_resp": circuit.mean_response_time,
                     "packet_resp": packet.mean_response_time})
    report = format_rows(rows, columns=["rho", "ratio", "circuit_resp",
                                        "packet_resp"],
                         title="Section II: circuit vs packet switching")
    return ExperimentResult("switching", "Circuit vs packet switching",
                            rows, report)


def _run_deadlock(quality: str) -> ExperimentResult:
    from repro.config import SystemConfig
    from repro.core.multi_resource import MultiResourceSystem
    from repro.workload import Workload
    horizon = {"fast": 10_000.0, "normal": 30_000.0, "full": 80_000.0}[quality]
    workload = Workload(arrival_rate=0.03, transmission_rate=1.0,
                        service_rate=0.15)
    rows = []
    for strategy in ("atomic", "incremental", "claimed"):
        system = MultiResourceSystem(SystemConfig.parse("8/1x8x4 XBAR/2"),
                                     workload, resources_needed=3,
                                     strategy=strategy, seed=2)
        result = system.run(horizon=horizon, warmup=horizon * 0.1)
        rows.append({"strategy": strategy,
                     "completed": result.completed_tasks,
                     "deadlocks": system.deadlocks_detected,
                     "aborts": system.aborts})
    report = format_rows(rows, columns=["strategy", "completed", "deadlocks",
                                        "aborts"],
                         title="Section VII: multi-resource acquisition")
    return ExperimentResult("deadlock", "Multi-resource requests and deadlock",
                            rows, report)


def _run_multibus(_quality: str) -> ExperimentResult:
    from repro.markov import solve_multibus, solve_sbus
    one = solve_sbus(0.5, 1.0, 0.3, 4)
    two = solve_multibus(0.5, 1.0, 0.3, buses=2, resources_per_bus=2)
    rows = [
        {"system": "1 bus x 4 resources (exact chain)", "d": one.mean_delay},
        {"system": "2 buses x 2 resources (exact chain)", "d": two.mean_delay},
    ]
    report = format_rows(rows, columns=["system", "d"],
                         title="Section IV: exact small-m multiple-bus chain")
    return ExperimentResult("multibus", "Exact small-m multiple-bus analysis",
                            rows, report)


_RUNNERS: Dict[str, Callable[[str], ExperimentResult]] = {
    **{exp_id: partial(_run_figure, exp_id) for exp_id in figures.FIGURE_SPECS},
    "fig11": _run_fig11,
    "sec2": _run_sec2,
    "blocking": _run_blocking,
    "sec6": _run_sec6,
    "table2": _run_table2,
    "cycles": _run_cycles,
    # Extension experiments (claims the paper argues or defers).
    "bottleneck": _run_bottleneck,
    "switching": _run_switching,
    "deadlock": _run_deadlock,
    "multibus": _run_multibus,
}

EXPERIMENT_IDS = tuple(sorted(_RUNNERS))


def run_experiment(exp_id: str, quality: str = "fast") -> ExperimentResult:
    """Run one registered experiment and return its data and text report."""
    runner = _RUNNERS.get(exp_id)
    if runner is None:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; expected one of {EXPERIMENT_IDS}")
    return runner(quality)
