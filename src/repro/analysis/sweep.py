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
from repro.sim.rng import spawn_seed
from repro.sim.stats import confidence_interval
from repro.workload.arrivals import Workload

#: Number of resources in the x-axis reference system (the paper's 32).
REFERENCE_RESOURCES = 32

#: Replications every simulated sweep point splits its horizon over.
POINT_REPLICATIONS = 16

#: Share of each replication discarded as warm-up.
WARMUP_FRACTION = 0.1

#: Simulated points at or beyond this share of the saturation intensity
#: are reported saturated without being simulated.
SATURATION_GUARD = 0.98


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


@dataclass(frozen=True)
class SimulatedCurve:
    """One simulated curve request: a configuration, its mu ratio, the
    intensities with one seed per point, and the simulated horizon."""

    config: Union[SystemConfig, str]
    mu_ratio: float
    intensities: Sequence[float]
    point_seeds: Sequence[int]
    horizon: float


@dataclass
class _LockstepGroup:
    """Batchable points of several curves that share one engine."""

    config: SystemConfig           # the first point's, for lockstep_mismatch
    horizon: float
    slots: List[Tuple[int, int, float]] = field(default_factory=list)
    configs: List[SystemConfig] = field(default_factory=list)
    workloads: List[Workload] = field(default_factory=list)
    seed_groups: List[List[int]] = field(default_factory=list)


def simulated_curves(curves: Sequence[SimulatedCurve]
                     ) -> List[List[SweepPoint]]:
    """Event-simulation delay points of several curves, one list per curve.

    The computation behind every simulated figure unit (see
    :mod:`repro.runner.evaluators`); a single point is a one-point curve.
    A point depends only on its own curve, intensity and seed, never on
    which other points or curves share the call, so the result equals the
    curves and their points computed one at a time, bit for bit.

    Points at or beyond :data:`SATURATION_GUARD` times the configuration's
    saturation intensity are reported as saturated rather than burning
    simulation time on a queue that only grows.  Every other point has one
    estimator: :data:`POINT_REPLICATIONS` replications of ``horizon /
    POINT_REPLICATIONS`` under priority arbitration, the first
    :data:`WARMUP_FRACTION` of each discarded, seeded ``spawn_seed(seed,
    "batched-replication", k)``, and the Student-t interval across them
    (:func:`_replicated_point`).  The batchability gate
    (:func:`repro.sim.batched.batched_unsupported_reason`) picks only the
    engine.  Points it admits are grouped by
    :func:`repro.sim.batched.lockstep_mismatch` plus equal horizons, and
    each group advances as one lockstep batch: fig. 7's four crossbar
    curves run as one engine, and figs. 12 and 13 run two, one for the
    three Omega wirings and one for the crossbar reference curve.
    Points it refuses (infinite resource pools, fault configurations) run
    the same replications through :func:`~repro.core.system.simulate`.  A
    lockstep row equals the scalar run of its seed bit for bit, so a
    point's value never depends on which engine computed it.
    """
    from repro.sim.batched import (
        batched_delays,
        batched_unsupported_reason,
        lockstep_mismatch,
    )

    results: List[List[Optional[SweepPoint]]] = []
    groups: List[_LockstepGroup] = []
    for number, curve in enumerate(curves):
        config = (SystemConfig.parse(curve.config)
                  if isinstance(curve.config, str) else curve.config)
        grid = list(curve.intensities)
        if len(curve.point_seeds) != len(grid):
            raise ConfigurationError(
                f"need one seed per point: {len(grid)} intensities, "
                f"{len(curve.point_seeds)} seeds")
        limit = SATURATION_GUARD * saturation_intensity(config,
                                                        curve.mu_ratio)
        per_replication = curve.horizon / POINT_REPLICATIONS
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
            seeds = [spawn_seed(seed, "batched-replication", replication)
                     for replication in range(POINT_REPLICATIONS)]
            if batched_unsupported_reason(config, workload) is not None:
                points[index] = _replicated_point(
                    intensity, workload, replication_delays(
                        config, workload, per_replication,
                        per_replication * WARMUP_FRACTION, seeds))
                continue
            group = next(
                (group for group in groups if group.horizon == curve.horizon
                 and lockstep_mismatch(group.config, config) is None),
                None)
            if group is None:
                group = _LockstepGroup(config, curve.horizon)
                groups.append(group)
            group.slots.append((number, index, intensity))
            group.configs.append(config)
            group.workloads.append(workload)
            group.seed_groups.append(seeds)
    for group in groups:
        per_replication = group.horizon / POINT_REPLICATIONS
        delay_groups = batched_delays(
            group.configs, group.workloads, horizon=per_replication,
            warmup=per_replication * WARMUP_FRACTION,
            seed_groups=group.seed_groups)
        for (number, index, intensity), workload, delays in zip(
                group.slots, group.workloads, delay_groups):
            results[number][index] = _replicated_point(intensity, workload,
                                                       delays)
    return [[point for point in points if point is not None]
            for points in results]


def _replicated_point(intensity: float, workload: Workload,
                      delays: Sequence[float]) -> SweepPoint:
    """A sweep point from its replications' mean delays: the Student-t
    interval over the finite ones, saturated when none is finite (no
    replication dispatched a task inside its measurement window)."""
    finite = [delay for delay in delays if not math.isnan(delay)]
    if not finite:
        return SweepPoint(intensity=intensity, normalized_delay=None)
    mean, halfwidth = confidence_interval(finite)
    return SweepPoint(intensity=intensity,
                      normalized_delay=mean * workload.service_rate,
                      ci_halfwidth=halfwidth * workload.service_rate)


def replication_delays(config: Union[SystemConfig, str], workload: Workload,
                       horizon: float, warmup: float,
                       seeds: Sequence[int]) -> List[float]:
    """Mean queueing delay of one replication per seed, in seed order,
    under priority arbitration.

    One lockstep batch when the batchability gate admits the model, one
    :func:`~repro.core.system.simulate` run per seed otherwise.  A lockstep
    row equals the scalar run of its seed bit for bit, so the gate picks
    the engine, never the values.
    """
    from repro.sim.batched import batched_delays, batched_unsupported_reason

    if batched_unsupported_reason(config, workload) is None:
        return batched_delays(config, [workload], horizon=horizon,
                              warmup=warmup, seed_groups=[list(seeds)])[0]
    return [simulate(config, workload, horizon=horizon, warmup=warmup,
                     seed=seed).mean_queueing_delay
            for seed in seeds]


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
