"""Figure and table definitions: every evaluation artifact of the paper.

Each delay figure is declared as a :class:`FigureSpec` (ratio ``mu_s/mu_n``
plus the configurations drawn in it); :func:`figure_series` materializes
the curves with the exact Markov solver (bus systems) or the event
simulator (switched fabrics).  Non-curve experiments (Fig. 11, Tables I
and II, the Section II and V examples) have dedicated functions here and
are registered alongside in :mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.blocking import blocking_comparison, full_permutation_blocking
from repro.analysis.selection import (
    CostModel,
    CostRegime,
    classify,
    qualitative_recommendation,
    recommend,
)
from repro.analysis.sweep import DEFAULT_ENGINE, ENGINES, Series, workload_at
from repro.config import SystemConfig
from repro.core.scheduler import (
    centralized_multistage,
    distributed_crossbar_delay,
    distributed_multistage_delay,
    priority_circuit_crossbar,
)
from repro.errors import ConfigurationError
from repro.networks.address_mapping import max_conflict_free, sequential_tag_routing
from repro.networks.omega import ClockedMultistageScheduler, ScheduleResult
from repro.networks.topology import OmegaTopology


@dataclass(frozen=True)
class FigureSpec:
    """A delay-versus-intensity figure: one ratio, several configurations."""

    exp_id: str
    title: str
    mu_ratio: float
    curves: Tuple[Tuple[str, str], ...]   # (label, configuration triplet)


#: Quality presets: (intensity grid step, simulation horizon).
QUALITY_PRESETS: Dict[str, Tuple[float, float]] = {
    "fast": (0.15, 8_000.0),
    "normal": (0.10, 30_000.0),
    "full": (0.05, 120_000.0),
}

_SBUS_CURVES = (
    ("1 partition (16 proc/bus, 32 res)", "16/1x1x1 SBUS/32"),
    ("2 partitions (8 proc/bus, 16 res)", "16/2x1x1 SBUS/16"),
    ("8 partitions (2 proc/bus, 4 res)", "16/8x1x1 SBUS/4"),
    ("16 private buses, r=2", "16/16x1x1 SBUS/2"),
    ("16 private buses, r=3", "16/16x1x1 SBUS/3"),
    ("16 private buses, r=4", "16/16x1x1 SBUS/4"),
    ("16 private buses, r=inf", "16/16x1x1 SBUS/inf"),
)

_XBAR_CURVES = (
    ("16x32 crossbar, private ports", "16/1x16x32 XBAR/1"),
    ("16x16 crossbar, shared ports r=2", "16/1x16x16 XBAR/2"),
    ("4x (4x8) crossbars, r=1", "16/4x4x8 XBAR/1"),
    ("4x (4x4) crossbars, r=2", "16/4x4x4 XBAR/2"),
)

_OMEGA_CURVES = (
    ("16x16 Omega, r=2", "16/1x16x16 OMEGA/2"),
    ("8x (2x2) Omega, r=2", "16/8x2x2 OMEGA/2"),
    ("4x (4x4) Omega, r=2", "16/4x4x4 OMEGA/2"),
    ("16x16 crossbar reference, r=2", "16/1x16x16 XBAR/2"),
)

FIGURE_SPECS: Dict[str, FigureSpec] = {
    spec.exp_id: spec
    for spec in (
        FigureSpec("fig4", "Single shared bus, mu_s/mu_n = 0.1", 0.1, _SBUS_CURVES),
        FigureSpec("fig5", "Single shared bus, mu_s/mu_n = 1.0", 1.0, _SBUS_CURVES),
        FigureSpec("fig7", "Multiple shared buses, mu_s/mu_n = 0.1", 0.1, _XBAR_CURVES),
        FigureSpec("fig8", "Multiple shared buses, mu_s/mu_n = 1.0", 1.0, _XBAR_CURVES),
        FigureSpec("fig12", "Omega networks, mu_s/mu_n = 0.1", 0.1, _OMEGA_CURVES),
        FigureSpec("fig13", "Omega networks, mu_s/mu_n = 1.0", 1.0, _OMEGA_CURVES),
    )
}


def intensity_grid(step: float, start: float = 0.1, stop: float = 1.2) -> List[float]:
    """The x-axis sample points (curves end where configurations saturate)."""
    if step <= 0:
        raise ConfigurationError(f"grid step must be positive, got {step}")
    grid = []
    value = start
    while value <= stop + 1e-9:
        grid.append(round(value, 6))
        value += step
    return grid


def figure_work_units(exp_id: str, quality: str = "fast",
                      intensities: Optional[Sequence[float]] = None,
                      seed: int = 1, engine: str = DEFAULT_ENGINE):
    """Decompose a delay figure into independent work units.

    Returns ``(spec, grid, units)`` with units in curve-major order.

    Analytic (SBUS) curves become one ``analytic-point`` unit per
    intensity under either engine — the exact chain is both the reference
    and the fastest path.  They carry seed 0: the chain draws no
    randomness, and a fixed seed lets cached points be shared across
    master seeds.  Each point is solved on its own, so its value does not
    depend on execution order.

    Simulated curves become ``megabatch-figure`` units carrying the
    master ``seed``, the ``engine`` and their intensities; the point at
    intensity ``x`` runs with ``spawn_seed(seed, triplet, x)``, its own
    replication rather than one seed reused across the figure.  The
    batched engine advances a whole curve at once, so each curve is one
    unit (a serial run hands a figure's pending curve units to one
    evaluator call, where compatible curves share one engine); the
    scalar loop gains nothing from sharing an engine, so each of its
    points is a one-point curve that a worker pool can spread.  Unit
    digests cover the engine, so the result cache never serves scalar
    and batched curves for each other.
    """
    from repro.runner import WorkUnit

    spec = FIGURE_SPECS.get(exp_id)
    if spec is None:
        raise ConfigurationError(
            f"unknown figure {exp_id!r}; expected one of {sorted(FIGURE_SPECS)}")
    if quality not in QUALITY_PRESETS:
        raise ConfigurationError(
            f"unknown quality {quality!r}; expected one of {sorted(QUALITY_PRESETS)}")
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    step, horizon = QUALITY_PRESETS[quality]
    grid = list(intensities) if intensities is not None else intensity_grid(step)
    runs = [grid] if engine == "batched" else [[x] for x in grid]
    units = []
    for _label, triplet in spec.curves:
        if SystemConfig.parse(triplet).network_type == "SBUS":
            for intensity in grid:
                units.append(WorkUnit("analytic-point", 0, {
                    "config": triplet,
                    "mu_ratio": spec.mu_ratio,
                    "intensity": intensity,
                }))
            continue
        for run in runs:
            if run:
                units.append(WorkUnit("megabatch-figure", seed, {
                    "config": triplet,
                    "mu_ratio": spec.mu_ratio,
                    "intensities": run,
                    "horizon": horizon,
                    "engine": engine,
                }))
    return spec, grid, units


def figure_family_work_units(exp_ids: Sequence[str], quality: str = "fast",
                             intensities: Optional[Sequence[float]] = None,
                             seed: int = 1, engine: str = DEFAULT_ENGINE):
    """Work units for several figures as one batch, duplicates included.

    Returns ``(specs, grid, units)``: the per-figure specs, the shared
    intensity grid, and the concatenation of every figure's units in
    figure-major order.  Unit identity is deliberately *not* figure-aware
    — digest material is the configuration triplet, mu ratio,
    intensities, horizon, engine, and master seed — so curves shared
    between figures (fig7 and fig12 both
    plot the ``16/1x16x16 XBAR/2`` reference at the same mu ratio) emerge
    as *equal-digest units*, which the supervisor's in-flight dedup
    executes once and one warm cache serves to every figure.  This is the
    multi-requester sweep-service shape: the family is what a batch of
    overlapping figure requests looks like to the runner.

    Every figure in the family must agree on the quality preset and
    intensity grid (they do by construction — the grid is a function of
    ``quality``/``intensities`` only).
    """
    specs = []
    units: List = []
    grid: List[float] = []
    for exp_id in exp_ids:
        spec, grid, figure_units = figure_work_units(
            exp_id, quality=quality, intensities=intensities, seed=seed,
            engine=engine)
        specs.append(spec)
        units.extend(figure_units)
    return specs, grid, units


def figure_series(exp_id: str, quality: str = "fast",
                  intensities: Optional[Sequence[float]] = None,
                  seed: int = 1, jobs: Optional[int] = None,
                  runner=None, engine: str = DEFAULT_ENGINE,
                  resume: bool = False) -> List[Series]:
    """Materialize every curve of a delay figure.

    Points are independent seeded work units executed through a
    :class:`~repro.runner.SweepRunner` — serially by default, fanned out
    over processes with ``jobs`` (or the ``REPRO_JOBS`` environment
    variable), and memoized when the runner carries a result cache.  The
    assembled series are identical whatever the worker count.

    When the runner carries a cache, the run is journaled under a digest of
    the figure identity (next to the cache, in ``_journals/``) so that a
    killed sweep leaves a checkpoint behind; ``resume=True`` replays that
    journal and recomputes only the missing points.  Resume accounting ends
    up on ``runner.last_report``.
    """
    from repro.runner import SweepJournal, SweepRunner, code_version

    spec, grid, units = figure_work_units(exp_id, quality=quality,
                                          intensities=intensities, seed=seed,
                                          engine=engine)
    if runner is None:
        runner = SweepRunner(jobs=jobs)
    if runner.journal is None and runner.cache is not None:
        runner.journal = SweepJournal.for_sweep(
            runner.cache.root, "figure", exp_id, quality, seed, engine,
            code_version())
    if resume:
        if runner.cache is None:
            raise ConfigurationError(
                "resume requires a result cache: completed points are "
                "replayed from it, so a cache-less runner has nothing to "
                "resume from")
        runner.resume = True
    # Analytic units hold one point, simulated units a list of them; every
    # curve covers the whole grid, so the flat point list splits evenly.
    points: List = []
    for value in runner.run_values(units):
        if isinstance(value, list):
            points.extend(value)
        else:
            points.append(value)
    series = []
    for number, (label, triplet) in enumerate(spec.curves):
        config = SystemConfig.parse(triplet)
        method = ("markov-chain" if config.network_type == "SBUS"
                  else "event-simulation")
        curve_points = points[number * len(grid):(number + 1) * len(grid)]
        series.append(Series(label=label, config=config,
                             mu_ratio=spec.mu_ratio,
                             points=tuple(curve_points), method=method))
    return series


# ---------------------------------------------------------------------------
# Fig. 11 — the worked Omega example
# ---------------------------------------------------------------------------

FIG11_REQUESTERS = (0, 3, 4, 5)
FIG11_FREE_PORTS = (0, 1, 4, 5)
FIG11_EXPECTED_AVERAGE_HOPS = 3.5


def fig11_example() -> ScheduleResult:
    """Run the exact Fig. 11 scenario on an 8x8 Omega network."""
    scheduler = ClockedMultistageScheduler(
        OmegaTopology(8), {port: 1 for port in FIG11_FREE_PORTS})
    return scheduler.run(list(FIG11_REQUESTERS))


# ---------------------------------------------------------------------------
# Section II — the mapping example
# ---------------------------------------------------------------------------

SEC2_GOOD_MAPPINGS = (
    ((0, 0), (1, 1), (2, 2)),
    ((0, 1), (1, 0), (2, 2)),
    ((0, 2), (1, 0), (2, 1)),
    ((0, 2), (1, 1), (2, 0)),
)
SEC2_BAD_MAPPINGS = (
    ((0, 0), (1, 2), (2, 1)),
    ((0, 1), (1, 2), (2, 0)),
)


def sec2_mapping_example() -> Dict[str, object]:
    """Check the paper's good/bad mapping sets on an 8x8 Omega."""
    topology = OmegaTopology(8)
    good = [not topology.paths_conflict(list(mapping))
            for mapping in SEC2_GOOD_MAPPINGS]
    bad_allocations = []
    for mapping in SEC2_BAD_MAPPINGS:
        outcome = sequential_tag_routing(topology, list(mapping))
        bad_allocations.append(len(outcome.routed))
    best, _assignment = max_conflict_free(topology, [0, 1, 2], [0, 1, 2])
    return {
        "good_mappings_conflict_free": good,
        "bad_mappings_allocated": bad_allocations,
        "optimal_allocatable": best,
    }


# ---------------------------------------------------------------------------
# Section V — blocking probability comparison
# ---------------------------------------------------------------------------

def blocking_experiment(trials: int = 400, seed: int = 0) -> Dict[str, object]:
    """The Section V blocking comparison on an 8x8 Omega network."""
    points = blocking_comparison(size=8, request_sizes=(3, 4, 5, 6),
                                 trials=trials, seed=seed)
    full = full_permutation_blocking(size=8, trials=max(trials, 500), seed=seed)
    return {"by_request_size": points, "full_permutation": full}


# ---------------------------------------------------------------------------
# Section VI — the headline comparison and Table II
# ---------------------------------------------------------------------------

SEC6_BUS_CONFIG = "16/16x1x1 SBUS/3"
SEC6_RIVALS = ("16/4x4x4 OMEGA/2", "16/4x4x4 XBAR/2")


def sec6_comparison(intensity: float = 1.0, mu_ratio: float = 0.1,
                    horizon: float = 30_000.0, seed: int = 1) -> Dict[str, float]:
    """Delay of the SBUS/3 system against its OMEGA/2 and XBAR/2 rivals.

    The paper: "a 16/16x1x1 SBUS/3 system has a much better delay behavior
    than a 16/4x4x4 OMEGA/2 or a 16/4x4x4 XBAR/2 system" (more resources
    behind cheap networks beat fewer resources behind clever ones).  The
    effect is a capacity gap: at mu_s/mu_n = 0.1 the SBUS/3 pool sustains
    0.3 tasks/unit per processor against the rivals' 0.2, so from moderate
    load on the rivals' queues grow several times longer.
    """
    from repro.analysis.approximations import sbus_delay
    from repro.core.system import simulate

    results: Dict[str, float] = {}
    workload = workload_at(intensity, mu_ratio)
    bus = SystemConfig.parse(SEC6_BUS_CONFIG)
    results[SEC6_BUS_CONFIG] = (
        sbus_delay(bus, workload).mean_delay * workload.service_rate)
    for triplet in SEC6_RIVALS:
        outcome = simulate(triplet, workload, horizon=horizon,
                           warmup=horizon * 0.1, seed=seed)
        results[triplet] = outcome.normalized_delay
    return results


TABLE2_CANDIDATES = (
    "16/16x1x1 SBUS/6",       # private buses, many resources (96 total)
    "16/1x16x16 OMEGA/2",     # single multistage network
    "16/1x16x32 XBAR/1",      # single crossbar network
    "16/2x8x8 OMEGA/3",       # small multistage nets + more resources (48)
    "16/2x8x8 XBAR/3",        # small crossbar nets + more resources (48)
)

#: resource_unit_cost per regime, in crosspoint-equivalents.
TABLE2_REGIME_COSTS = {
    CostRegime.NETWORK_CHEAP: 64.0,
    CostRegime.COMPARABLE: 8.0,
    CostRegime.NETWORK_EXPENSIVE: 0.25,
}
TABLE2_RATIOS = {"small": 0.1, "large": 4.0}

#: Evaluation intensity per ratio class.  Small mu_s/mu_n is judged at a
#: load heavy enough for the resource pool to matter (0.8); large
#: mu_s/mu_n at heavy load, where multistage internal blocking is the
#: discriminating effect.
TABLE2_INTENSITIES = {"small": 0.8, "large": 1.05}

#: Bus taps are far simpler than crosspoints in the cost accounting.
TABLE2_BUS_TAP_COST = 0.25


def simulation_delay_evaluator(horizon: float = 30_000.0, seed: int = 1):
    """A delay evaluator backed by the event simulator (exact for buses).

    Results are memoized on ``(config, workload)`` — the Table II grid asks
    for the same candidate under several cost regimes, and the delay does
    not depend on the regime.
    """
    from repro.analysis.approximations import sbus_delay
    from repro.core.system import simulate

    cache: Dict[Tuple[str, float, float, float], float] = {}

    def evaluate(config: SystemConfig, workload) -> float:
        key = (str(config), workload.arrival_rate,
               workload.transmission_rate, workload.service_rate)
        if key not in cache:
            if config.network_type == "SBUS":
                cache[key] = sbus_delay(config, workload).mean_delay
            else:
                result = simulate(config, workload, horizon=horizon,
                                  warmup=horizon * 0.1, seed=seed)
                cache[key] = result.mean_queueing_delay
        return cache[key]

    return evaluate


def table2_selection(horizon: float = 20_000.0,
                     seed: int = 1) -> List[Dict[str, object]]:
    """Drive the advisor across the Table II grid and report the winners."""
    candidates = [SystemConfig.parse(text) for text in TABLE2_CANDIDATES]
    evaluator = simulation_delay_evaluator(horizon=horizon, seed=seed)
    rows: List[Dict[str, object]] = []
    for regime, unit_cost in TABLE2_REGIME_COSTS.items():
        for ratio_name, ratio in TABLE2_RATIOS.items():
            workload = workload_at(TABLE2_INTENSITIES[ratio_name], ratio)
            model = CostModel(resource_unit_cost=unit_cost,
                              bus_tap_cost=TABLE2_BUS_TAP_COST)
            recommendation = recommend(candidates, workload, model,
                                       evaluator=evaluator)
            rows.append({
                "regime": regime,
                "mu_ratio": ratio,
                "winner": recommendation.winner.config,
                "winner_class": classify(recommendation.winner.config),
                "paper_class": qualitative_recommendation(regime, ratio),
                "ranking": recommendation.ranking,
            })
    return rows


# ---------------------------------------------------------------------------
# Section IV/V — scheduling-overhead scaling (distributed vs centralized)
# ---------------------------------------------------------------------------

def cycle_time_comparison(sizes: Sequence[int] = (4, 8, 16, 32, 64),
                          seed: int = 0) -> List[Dict[str, float]]:
    """Gate-delay cost of serving N requests, scheduler by scheduler."""
    from repro.sim.rng import RngStream

    rows = []
    for size in sizes:
        requests = list(range(size))
        free = list(range(size))
        centralized = priority_circuit_crossbar(requests, free, size, size)
        topology = OmegaTopology(size)
        multistage = centralized_multistage(
            topology, requests, free,
            rng=RngStream(seed, name="cycle-time-comparison"))
        rows.append({
            "N": size,
            "distributed_crossbar": distributed_crossbar_delay(size, size),
            "centralized_crossbar": centralized.delay_units,
            "distributed_multistage": distributed_multistage_delay(size),
            "centralized_multistage": multistage.delay_units,
        })
    return rows
