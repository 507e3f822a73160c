"""Degraded-capacity analysis: performance with k of m resources up.

The paper's queueing models assume every resource is permanently healthy.
Under the fault model of :mod:`repro.faults` each component alternates
between up and down states with mean times ``mttf`` and ``mttr``.  When
fault dynamics are slow relative to queueing dynamics (``mttf, mttr >>``
service times), the system is quasi-stationary: it behaves like an M/M/k
queue conditioned on the current number ``k`` of healthy resources, and
the long-run observables are availability-weighted mixtures over ``k``.

The number of healthy resources follows a machine-repair birth-death CTMC
(state ``k`` = resources up out of ``m``; repairs at rate ``(m - k)/mttr``,
failures at rate ``k/mttf``).  Its stationary distribution is the Binomial
``B(m, A)`` with per-component availability ``A = mttf / (mttf + mttr)``;
both routes are implemented and cross-checked in the test suite.

Mixture observables:

* throughput: ``sum_k P(k) * min(lambda, k * mu)`` — offered load capped by
  the degraded service capacity;
* queueing delay: ``sum_k P(k) * W_q(M/M/k)`` over the stable states, with
  the saturated probability mass ``P(lambda >= k * mu)`` reported
  separately (its conditional delay is unbounded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.queueing.birth_death import birth_death_probabilities
from repro.queueing.mmc import mmc_metrics
from repro.workload.arrivals import Workload


def availability_distribution(servers: int, availability: float) -> Tuple[float, ...]:
    """P(k of ``servers`` components up), k = 0..servers: Binomial(m, A)."""
    if servers < 1:
        raise ConfigurationError(f"need at least one server, got {servers}")
    if not 0.0 <= availability <= 1.0:
        raise ConfigurationError(
            f"availability must be in [0, 1], got {availability}")
    pmf = []
    for k in range(servers + 1):
        pmf.append(math.comb(servers, k)
                   * availability ** k
                   * (1.0 - availability) ** (servers - k))
    return tuple(pmf)


def machine_repair_distribution(servers: int, mttf: float,
                                mttr: float) -> Tuple[float, ...]:
    """P(k up) from the machine-repair CTMC (independent oracle).

    State ``k`` is the number of healthy components; failed components are
    repaired in parallel at rate ``(servers - k) / mttr`` and healthy ones
    fail at rate ``k / mttf``.  The stationary distribution equals
    :func:`availability_distribution` with ``A = mttf / (mttf + mttr)``.
    """
    if mttf <= 0 or mttr <= 0 or not math.isfinite(mttr):
        raise ConfigurationError(
            f"need positive finite mttr and positive mttf, got "
            f"mttf={mttf} mttr={mttr}")
    if mttf == math.inf:
        return tuple([0.0] * servers + [1.0])
    return tuple(birth_death_probabilities(
        birth_rate=lambda k: (servers - k) / mttr,
        death_rate=lambda k: k / mttf,
        num_states=servers + 1,
    ))


@dataclass(frozen=True)
class DegradedMetrics:
    """Quasi-stationary predictions for a fleet with failing servers."""

    arrival_rate: float
    service_rate: float
    servers: int
    availability: float
    state_probabilities: Tuple[float, ...]
    expected_servers_up: float
    throughput: float
    saturated_probability: float
    mean_queueing_delay: float

    @property
    def capacity_factor(self) -> float:
        """Offered capacity relative to the healthy fleet (= availability)."""
        if self.servers == 0:
            return 0.0
        return self.expected_servers_up / self.servers

    @property
    def throughput_loss(self) -> float:
        """Throughput surrendered to faults, per unit time."""
        healthy = min(self.arrival_rate, self.servers * self.service_rate)
        return healthy - self.throughput


def degraded_metrics(arrival_rate: float, service_rate: float, servers: int,
                     mttf: float, mttr: float) -> DegradedMetrics:
    """Availability-weighted M/M/k predictions for ``servers`` failing servers.

    Valid in the quasi-stationary regime (fault time scales much longer
    than service times).  The delay mixture averages over the stable states
    only; ``saturated_probability`` carries the remaining mass, whose
    conditional delay grows without bound.
    """
    if arrival_rate <= 0 or service_rate <= 0:
        raise ConfigurationError("rates must be positive")
    availability = mttf / (mttf + mttr) if mttf != math.inf else 1.0
    pmf = availability_distribution(servers, availability)
    throughput = 0.0
    delay = 0.0
    saturated = pmf[0]  # zero servers up: nothing moves
    for k in range(1, servers + 1):
        capacity = k * service_rate
        throughput += pmf[k] * min(arrival_rate, capacity)
        if arrival_rate < capacity:
            delay += pmf[k] * mmc_metrics(arrival_rate, service_rate,
                                          k).mean_waiting_time
        else:
            saturated += pmf[k]
    return DegradedMetrics(
        arrival_rate=arrival_rate,
        service_rate=service_rate,
        servers=servers,
        availability=availability,
        state_probabilities=pmf,
        expected_servers_up=availability * servers,
        throughput=throughput,
        saturated_probability=saturated,
        mean_queueing_delay=delay,
    )


@dataclass(frozen=True)
class SystemDegradedMetrics:
    """System-level degraded predictions, decomposed per output port.

    Resources are physically attached to ports, so a port whose ``r``
    resources are all down stalls its share of the load even while other
    ports have spare capacity; the aggregate is ``ports`` independent
    copies of the per-port mixture, each fed ``1/ports`` of the arrivals.
    """

    ports: int
    per_port: DegradedMetrics
    throughput: float
    mean_queueing_delay: float

    @property
    def availability(self) -> float:
        return self.per_port.availability

    @property
    def expected_resources_up(self) -> float:
        return self.ports * self.per_port.expected_servers_up

    @property
    def saturated_probability(self) -> float:
        """Probability any given port is (quasi-stationarily) saturated."""
        return self.per_port.saturated_probability


def degraded_system_metrics(config: SystemConfig,
                            workload: Workload) -> SystemDegradedMetrics:
    """Degraded predictions for a configured system with resource faults.

    Treats each output port's ``r`` resources as an independent M/M/k
    fleet under ``1/total_ports`` of the aggregate arrival rate — the
    resource-bound limit, accurate when the network itself is not the
    bottleneck (light transmission load, symmetric routing).
    """
    if config.faults is None:
        raise ConfigurationError("configuration has no fault models attached")
    model = config.faults.model_for("resource")
    if model is None:
        raise ConfigurationError(
            "degraded-capacity analysis needs a resource fault model")
    if config.total_resources == math.inf:
        raise ConfigurationError("resource fleet must be finite")
    ports = config.total_ports
    per_port = degraded_metrics(
        arrival_rate=config.processors * workload.arrival_rate / ports,
        service_rate=workload.service_rate,
        servers=int(config.resources_per_port),
        mttf=model.mttf,
        mttr=model.mttr,
    )
    return SystemDegradedMetrics(
        ports=ports,
        per_port=per_port,
        throughput=ports * per_port.throughput,
        mean_queueing_delay=per_port.mean_queueing_delay,
    )


def degraded_throughput_curve(
        service_rate: float, servers: int, mttf: float, mttr: float,
        arrival_rates: Tuple[float, ...],
) -> Tuple[Tuple[float, float], ...]:
    """(arrival rate, predicted throughput) pairs for plotting."""
    return tuple(
        (rate, degraded_metrics(rate, service_rate, servers,
                                mttf, mttr).throughput)
        for rate in arrival_rates)
