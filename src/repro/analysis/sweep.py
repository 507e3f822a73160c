"""Parameter sweeps: delay-versus-traffic-intensity series.

This is the machinery behind every delay figure: fix ``mu_s / mu_n``, sweep
the traffic intensity of the hypothetical combined server (the paper's
x-axis), and record the normalized queueing delay ``mu_s * d`` for each
configuration — analytically where the configuration decomposes into
independent buses, by event simulation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.approximations import saturation_intensity, sbus_delay
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.errors import ConfigurationError, UnstableSystemError
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
                   intensity: float) -> SweepPoint:
    """One exact Markov-chain delay point (SBUS configurations)."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    workload = workload_at(intensity, mu_ratio, processors=config.processors)
    try:
        estimate = sbus_delay(config, workload)
    except UnstableSystemError:
        return SweepPoint(intensity=intensity, normalized_delay=None)
    return SweepPoint(
        intensity=intensity,
        normalized_delay=estimate.mean_delay * workload.service_rate)


def analytic_series(config: Union[SystemConfig, str], mu_ratio: float,
                    intensities: Sequence[float],
                    label: Optional[str] = None) -> Series:
    """Exact Markov-chain delay curve (SBUS configurations): one
    :func:`analytic_point` per intensity, the points ``repro run`` prints."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    points = [analytic_point(config, mu_ratio, intensity)
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

    Every point runs with ``seed``; see :func:`simulated_curves`.
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


@dataclass(frozen=True)
class SimulatedCurve:
    """One simulated curve request: a configuration, its mu ratio, the
    intensities with one seed per point, and how to simulate them."""

    config: Union[SystemConfig, str]
    mu_ratio: float
    intensities: Sequence[float]
    point_seeds: Sequence[int]
    horizon: float = 30_000.0
    warmup_fraction: float = 0.1
    arbitration: str = "priority"
    saturation_guard: float = 0.98
    engine: str = DEFAULT_ENGINE


@dataclass
class _LockstepGroup:
    """Batchable points of several curves that share one engine."""

    config: SystemConfig           # the first point's, for lockstep_mismatch
    key: Tuple[object, ...]        # horizon, warmup, arbitration, dists
    slots: List[Tuple[int, int, float]] = field(default_factory=list)
    configs: List[SystemConfig] = field(default_factory=list)
    workloads: List[Workload] = field(default_factory=list)
    seed_groups: List[List[int]] = field(default_factory=list)


def simulated_points(config: Union[SystemConfig, str], mu_ratio: float,
                     intensities: Sequence[float],
                     point_seeds: Sequence[int], horizon: float = 30_000.0,
                     warmup_fraction: float = 0.1,
                     arbitration: str = "priority",
                     saturation_guard: float = 0.98,
                     engine: str = DEFAULT_ENGINE) -> List[SweepPoint]:
    """Event-simulation delay points of one curve, one seed per point: the
    one-curve case of :func:`simulated_curves`."""
    [points] = simulated_curves([SimulatedCurve(
        config, mu_ratio, intensities, point_seeds, horizon=horizon,
        warmup_fraction=warmup_fraction, arbitration=arbitration,
        saturation_guard=saturation_guard, engine=engine)])
    return points


def simulated_curves(curves: Sequence[SimulatedCurve]
                     ) -> List[List[SweepPoint]]:
    """Event-simulation delay points of several curves, one list per curve.

    The computation behind every simulated figure unit (see
    :mod:`repro.runner.evaluators`); a single point is a one-point curve.
    A point depends only on its own curve, intensity and seed, never on
    which other points or curves share the call, so the result equals the
    curves and their points computed one at a time, bit for bit.

    Points at or beyond ``saturation_guard`` times the configuration's
    saturation intensity are reported as saturated rather than burning
    simulation time on a queue that only grows.  With ``engine="batched"``
    every other point the batchability gate admits
    (:func:`repro.sim.batched.batched_unsupported_reason`) splits its
    horizon over :data:`BATCHED_POINT_REPLICATIONS` replications seeded
    ``spawn_seed(seed, "batched-replication", k)`` and carries the
    Student-t interval across its replications.  Batchable points of all
    the curves are grouped by :func:`repro.sim.batched.lockstep_mismatch`
    plus equal horizon, warmup, arbitration and holding-time
    distributions, and each group advances as one lockstep batch: fig. 7's
    four crossbar curves run as one engine.  With ``engine="scalar"``,
    and for points the gate refuses (random/fifo arbiters, infinite
    resource pools, dynamic faults, discrete holding times), each point is
    one scalar run of the full horizon with its batch-means interval.  The
    two estimators differ by replication noise, not by model, which is
    why the engine is cache-digest material.
    """
    from repro.sim.batched import (
        batched_delays,
        batched_unsupported_reason,
        lockstep_mismatch,
    )
    from repro.sim.rng import spawn_seed
    from repro.sim.stats import confidence_interval

    results: List[List[Optional[SweepPoint]]] = []
    groups: List[_LockstepGroup] = []
    for number, curve in enumerate(curves):
        config = (SystemConfig.parse(curve.config)
                  if isinstance(curve.config, str) else curve.config)
        if curve.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown simulation engine {curve.engine!r}; expected one "
                f"of {ENGINES}")
        grid = list(curve.intensities)
        if len(curve.point_seeds) != len(grid):
            raise ConfigurationError(
                f"need one seed per point: {len(grid)} intensities, "
                f"{len(curve.point_seeds)} seeds")
        limit = curve.saturation_guard * saturation_intensity(
            config, curve.mu_ratio)
        points: List[Optional[SweepPoint]] = [None] * len(grid)
        results.append(points)
        for index, (intensity, seed) in enumerate(
                zip(grid, curve.point_seeds)):
            if intensity >= limit:
                points[index] = SweepPoint(intensity=intensity,
                                           normalized_delay=None)
                continue
            workload = workload_at(intensity, curve.mu_ratio,
                                   processors=config.processors)
            if curve.engine == "batched" and batched_unsupported_reason(
                    config, workload, curve.arbitration) is None:
                key = (curve.horizon, curve.warmup_fraction,
                       curve.arbitration,
                       workload.interarrival_distribution,
                       workload.transmission_distribution,
                       workload.service_distribution)
                group = next(
                    (group for group in groups if group.key == key
                     and lockstep_mismatch(group.config, config) is None),
                    None)
                if group is None:
                    group = _LockstepGroup(config, key)
                    groups.append(group)
                group.slots.append((number, index, intensity))
                group.configs.append(config)
                group.workloads.append(workload)
                group.seed_groups.append([
                    spawn_seed(seed, "batched-replication", replication)
                    for replication in range(BATCHED_POINT_REPLICATIONS)])
                continue
            result = simulate(config, workload, horizon=curve.horizon,
                              warmup=curve.horizon * curve.warmup_fraction,
                              seed=seed, arbitration=curve.arbitration)
            points[index] = SweepPoint(
                intensity=intensity,
                normalized_delay=result.normalized_delay,
                ci_halfwidth=result.delay_ci_halfwidth * workload.service_rate)
    for group in groups:
        horizon, warmup_fraction, arbitration = group.key[:3]
        per_replication = horizon / BATCHED_POINT_REPLICATIONS
        delay_groups = batched_delays(
            group.configs, group.workloads, horizon=per_replication,
            warmup=per_replication * warmup_fraction,
            seed_groups=group.seed_groups, arbitration=arbitration)
        for (number, index, intensity), workload, delays in zip(
                group.slots, group.workloads, delay_groups):
            finite = [delay for delay in delays if not math.isnan(delay)]
            if not finite:
                results[number][index] = SweepPoint(intensity=intensity,
                                                    normalized_delay=None)
                continue
            mean, halfwidth = confidence_interval(finite)
            results[number][index] = SweepPoint(
                intensity=intensity,
                normalized_delay=mean * workload.service_rate,
                ci_halfwidth=halfwidth * workload.service_rate)
    return [[point for point in points if point is not None]
            for points in results]


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
