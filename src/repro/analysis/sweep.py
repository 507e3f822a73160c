"""Parameter sweeps: delay-versus-traffic-intensity series.

This is the machinery behind every delay figure: fix ``mu_s / mu_n``, sweep
the traffic intensity of the hypothetical combined server (the paper's
x-axis), and record the normalized queueing delay ``mu_s * d`` for each
configuration — analytically where the configuration decomposes into
independent buses, by event simulation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.approximations import saturation_intensity, sbus_delay
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.errors import ConfigurationError, UnstableSystemError
from repro.markov.assembly import SolverContext
from repro.queueing.littles_law import arrival_rate_for_intensity
from repro.workload.arrivals import Workload

#: Number of resources in the x-axis reference system (the paper's 32).
REFERENCE_RESOURCES = 32

#: Lockstep replications one batched sweep point splits its horizon over.
BATCHED_POINT_REPLICATIONS = 16

#: The simulation engines.  ``scalar`` is the event loop, the reference:
#: one run of the full horizon per point, with a batch-means interval.
#: ``batched`` is the lockstep engine of :mod:`repro.sim.batched`: each
#: point becomes :data:`BATCHED_POINT_REPLICATIONS` replications and a
#: whole curve advances as one batch (points outside its gate run on the
#: scalar loop).
ENGINES = ("scalar", "batched")

#: The engine of every library entry point and of ``repro run``.
DEFAULT_ENGINE = "batched"


@dataclass(frozen=True)
class SweepPoint:
    """One (x, y) point: traffic intensity and normalized delay.

    A ``None`` delay marks a saturated configuration at this intensity
    (the paper's curves simply end where they blow up).
    """

    intensity: float
    normalized_delay: Optional[float]
    ci_halfwidth: Optional[float] = None


@dataclass(frozen=True)
class Series:
    """A labelled delay curve for one configuration."""

    label: str
    config: SystemConfig
    mu_ratio: float
    points: Tuple[SweepPoint, ...]
    method: str

    def finite_points(self) -> List[SweepPoint]:
        """Points below saturation."""
        return [p for p in self.points if p.normalized_delay is not None]


def workload_at(intensity: float, mu_ratio: float,
                processors: int = 16,
                reference_resources: int = REFERENCE_RESOURCES) -> Workload:
    """Workload hitting ``intensity`` on the paper's reference axis.

    Transmission rate is normalized to 1; the service rate is then
    ``mu_ratio`` and the per-processor arrival rate follows from the
    x-axis definition.  Both must be positive; intensities above 1 are
    legal (Table II evaluates at 1.05).
    """
    if not intensity > 0:
        raise ConfigurationError(
            f"traffic intensity must be positive, got {intensity}")
    if not mu_ratio > 0:
        raise ConfigurationError(
            f"mu ratio (mu_s / mu_n) must be positive, got {mu_ratio}")
    transmission_rate = 1.0
    service_rate = mu_ratio * transmission_rate
    arrival = arrival_rate_for_intensity(
        intensity, processors=processors, bus_rate=transmission_rate,
        total_resources=reference_resources, service_rate=service_rate)
    return Workload(arrival_rate=arrival, transmission_rate=transmission_rate,
                    service_rate=service_rate)


def analytic_point(config: Union[SystemConfig, str], mu_ratio: float,
                   intensity: float,
                   context: Optional[SolverContext] = None) -> SweepPoint:
    """One exact Markov-chain delay point (SBUS configurations).

    Passing a :class:`~repro.markov.assembly.SolverContext` routes the solve
    through the sweep-aware parametric fast path; structure assembled for
    one point is reused by every later point with the same chain shape.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    workload = workload_at(intensity, mu_ratio, processors=config.processors)
    try:
        estimate = sbus_delay(config, workload, context=context)
    except UnstableSystemError:
        return SweepPoint(intensity=intensity, normalized_delay=None)
    return SweepPoint(
        intensity=intensity,
        normalized_delay=estimate.mean_delay * workload.service_rate)


def analytic_series(config: Union[SystemConfig, str], mu_ratio: float,
                    intensities: Sequence[float],
                    label: Optional[str] = None,
                    context: Optional[SolverContext] = None,
                    solver: str = "sweep") -> Series:
    """Exact Markov-chain delay curve (SBUS configurations).

    The serial series uses the sweep-aware fast path by default (``solver=
    "sweep"``): one :class:`~repro.markov.assembly.SolverContext` spans the
    whole series so assembly and factorizations amortize and each point
    warm-starts from its neighbour.  ``solver="dense"`` forces the
    per-point reference solvers (the backend the parallel runner uses,
    where points must not depend on solve order).
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if solver not in ("sweep", "dense"):
        raise ValueError(f"unknown solver backend: {solver!r}")
    if context is None and solver == "sweep":
        context = SolverContext()
    points = [analytic_point(config, mu_ratio, intensity, context=context)
              for intensity in intensities]
    return Series(label=label or str(config), config=config, mu_ratio=mu_ratio,
                  points=tuple(points), method="markov-chain")


def simulated_series(config: Union[SystemConfig, str], mu_ratio: float,
                     intensities: Sequence[float], label: Optional[str] = None,
                     horizon: float = 30_000.0, warmup_fraction: float = 0.1,
                     seed: int = 1, arbitration: str = "priority",
                     saturation_guard: float = 0.98,
                     engine: str = DEFAULT_ENGINE) -> Series:
    """Event-simulation delay curve (crossbar / multistage configurations).

    Every point runs with ``seed``; see :func:`simulated_points`.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    grid = list(intensities)
    points = simulated_points(config, mu_ratio, grid, [seed] * len(grid),
                              horizon=horizon,
                              warmup_fraction=warmup_fraction,
                              arbitration=arbitration,
                              saturation_guard=saturation_guard,
                              engine=engine)
    return Series(label=label or str(config), config=config, mu_ratio=mu_ratio,
                  points=tuple(points), method="event-simulation")


def simulated_points(config: Union[SystemConfig, str], mu_ratio: float,
                     intensities: Sequence[float],
                     point_seeds: Sequence[int], horizon: float = 30_000.0,
                     warmup_fraction: float = 0.1,
                     arbitration: str = "priority",
                     saturation_guard: float = 0.98,
                     engine: str = DEFAULT_ENGINE) -> List[SweepPoint]:
    """Event-simulation delay points of one curve, one seed per point.

    The computation behind every simulated figure unit (see
    :mod:`repro.runner.evaluators`); a single point is a one-point curve.
    A point depends only on its own intensity and seed, never on which
    other points share the call, so a curve equals its points computed one
    at a time, bit for bit.

    Points at or beyond ``saturation_guard`` times the configuration's
    saturation intensity are reported as saturated rather than burning
    simulation time on a queue that only grows.  With ``engine="batched"``
    every other point the batchability gate admits
    (:func:`repro.sim.batched.batched_unsupported_reason`) splits its
    horizon over :data:`BATCHED_POINT_REPLICATIONS` replications seeded
    ``spawn_seed(seed, "batched-replication", k)``; the curve's whole
    (point, replication) grid advances as one lockstep batch, and each
    point carries the Student-t interval across its replications.  With
    ``engine="scalar"``, and for points the gate refuses (random/fifo
    arbiters, infinite resource pools, dynamic faults, discrete holding
    times), each point is one scalar run of the full horizon with its
    batch-means interval.  The two estimators differ by replication noise,
    not by model, which is why the engine is cache-digest material.
    """
    from repro.sim.batched import batched_delays, batched_unsupported_reason
    from repro.sim.rng import spawn_seed
    from repro.sim.stats import confidence_interval

    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; expected one of {ENGINES}")
    grid = list(intensities)
    if len(point_seeds) != len(grid):
        raise ConfigurationError(
            f"need one seed per point: {len(grid)} intensities, "
            f"{len(point_seeds)} seeds")
    limit = saturation_guard * saturation_intensity(config, mu_ratio)
    points: List[Optional[SweepPoint]] = [None] * len(grid)
    batch: List[Tuple[int, Workload, List[int]]] = []
    for index, (intensity, seed) in enumerate(zip(grid, point_seeds)):
        if intensity >= limit:
            points[index] = SweepPoint(intensity=intensity,
                                       normalized_delay=None)
            continue
        workload = workload_at(intensity, mu_ratio,
                               processors=config.processors)
        if engine == "batched" and batched_unsupported_reason(
                config, workload, arbitration) is None:
            batch.append((index, workload, [
                spawn_seed(seed, "batched-replication", replication)
                for replication in range(BATCHED_POINT_REPLICATIONS)]))
            continue
        result = simulate(config, workload, horizon=horizon,
                          warmup=horizon * warmup_fraction, seed=seed,
                          arbitration=arbitration)
        points[index] = SweepPoint(
            intensity=intensity,
            normalized_delay=result.normalized_delay,
            ci_halfwidth=result.delay_ci_halfwidth * workload.service_rate)
    if batch:
        per_replication = horizon / BATCHED_POINT_REPLICATIONS
        delay_groups = batched_delays(
            config, [workload for _, workload, _ in batch],
            horizon=per_replication,
            warmup=per_replication * warmup_fraction,
            seed_groups=[seeds for _, _, seeds in batch],
            arbitration=arbitration)
        for (index, workload, _), delays in zip(batch, delay_groups):
            finite = [delay for delay in delays if not math.isnan(delay)]
            if not finite:
                points[index] = SweepPoint(intensity=grid[index],
                                           normalized_delay=None)
                continue
            mean, halfwidth = confidence_interval(finite)
            points[index] = SweepPoint(
                intensity=grid[index],
                normalized_delay=mean * workload.service_rate,
                ci_halfwidth=halfwidth * workload.service_rate)
    return [point for point in points if point is not None]


def series_for(config: Union[SystemConfig, str], mu_ratio: float,
               intensities: Sequence[float], label: Optional[str] = None,
               **simulation_options) -> Series:
    """Dispatch: exact chain for buses, simulation for switched fabrics."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if config.network_type == "SBUS":
        return analytic_series(config, mu_ratio, intensities, label=label)
    return simulated_series(config, mu_ratio, intensities, label=label,
                            **simulation_options)


def crossover_intensity(first: Series, second: Series) -> Optional[float]:
    """Approximate intensity where two curves cross (None if they do not).

    Scans shared finite x-points for a sign change of the delay difference
    and linearly interpolates within the bracketing interval.
    """
    shared = []
    second_by_x = {p.intensity: p for p in second.points}
    for point in first.points:
        other = second_by_x.get(point.intensity)
        if (other is None or point.normalized_delay is None
                or other.normalized_delay is None):
            continue
        shared.append((point.intensity,
                       point.normalized_delay - other.normalized_delay))
    for (x0, d0), (x1, d1) in zip(shared, shared[1:]):
        if d0 == 0:
            return x0
        if d0 * d1 < 0:
            return x0 + (x1 - x0) * abs(d0) / (abs(d0) + abs(d1))
    return None
