"""Cycle-accurate crossbar RSIN: assumption (c) relaxed.

The queueing models assume the network's propagation delay is negligible
(assumption (c)).  The crossbar hardware of Section IV actually operates
in alternating *request* and *reset* cycles — ``4 (p + m)`` and ``p + m``
gate delays long — and "requests and resets cannot operate concurrently",
which the paper flags as the price of the single-MODE-line design.

This simulator drives the gate-level :class:`DistributedCrossbar` in real
time.  Cycles are demand-driven: whenever work appears (a new task, a
finished transmission to release, a freed resource), the next
reset-then-request cycle pair is armed and completes one full cycle time
later; grants and releases take effect at that boundary.  With
``gate_time = 0`` cycles are instantaneous and the model degenerates to
the event-driven scheduler; growing ``gate_time`` shows when scheduling
overhead starts to dominate the queueing delay — quantifying how good
assumption (c) actually is.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.config import SystemConfig, check_window
from repro.core.metrics import MetricsCollector, SimulationResult, summarize
from repro.core.task import Task
from repro.errors import ConfigurationError, SimulationError
from repro.networks.cells import (
    REQUEST_GATE_DELAY,
    RESET_GATE_DELAY,
    DistributedCrossbar,
)
from repro.sim.environment import Environment
from repro.sim.events import PRIORITY_LOW
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import Workload


class CycleAccurateCrossbarSystem:
    """An RSIN on one crossbar, scheduled by explicit hardware cycles.

    Single-partition XBAR configurations only: the cycle structure is a
    property of one switch.  Tasks wait at processors; at every armed
    request-cycle boundary the wavefront allocates waiting processors to
    available buses (free bus + free resource); transmissions that finished
    since the previous boundary are released in the reset cycle that
    immediately precedes it.
    """

    def __init__(self, config: SystemConfig, workload: Workload,
                 gate_time: float = 0.0, seed: int = 0):
        if config.network_type != "XBAR" or config.num_networks != 1:
            raise ConfigurationError(
                "cycle-accurate model supports a single crossbar (XBAR) "
                f"partition, got {config}")
        if gate_time < 0:
            raise ConfigurationError(f"gate_time must be >= 0, got {gate_time}")
        self.config = config
        self.workload = workload
        self.gate_time = gate_time
        self.streams = RandomStreams(seed)
        self.env = Environment()
        self.metrics = MetricsCollector(service_rate=workload.service_rate)
        processors = config.processors
        buses = config.outputs_per_network
        self.switch = DistributedCrossbar(processors, buses)
        self.queues: List[Deque[Task]] = [deque() for _ in range(processors)]
        self.transmitting: List[Optional[Task]] = [None] * processors
        self.busy_resources: List[int] = [0] * buses
        self.bus_of_processor: Dict[int, int] = {}
        self._finished_rows: List[int] = []
        self._cycle_armed = False
        self._task_counter = 0
        self._started = False
        self.cycles_run = 0
        # Cycle lengths per the paper's gate-delay accounting; one boundary
        # is a reset cycle followed by a request cycle.
        self.cycle_time = gate_time * (
            REQUEST_GATE_DELAY + RESET_GATE_DELAY) * (processors + buses)

    # -- workload ----------------------------------------------------------
    def _schedule_arrival(self, processor: int) -> None:
        delay = self.workload.next_interarrival(
            self.streams.stream(f"arrivals-{processor}"))
        self.env.timeout(delay).add_callback(
            lambda _event, p=processor: self._arrive(p))

    def _arrive(self, processor: int) -> None:
        self._task_counter += 1
        task = Task(task_id=self._task_counter, processor=processor,
                    created=self.env.now)
        self.queues[processor].append(task)
        self.metrics.task_generated(self.env.now)
        self._arm_cycle()
        self._schedule_arrival(processor)

    # -- hardware cycles ------------------------------------------------------
    def _arm_cycle(self) -> None:
        """Schedule the next reset+request boundary if not already armed."""
        if self._cycle_armed:
            return
        self._cycle_armed = True
        boundary = self.env.timeout(self.cycle_time, priority=PRIORITY_LOW)
        boundary.add_callback(lambda _event: self._cycle_boundary())

    def _bus_available(self, bus: int) -> bool:
        resources = self.config.resources_per_port
        return (bus not in self.bus_of_processor.values()
                and self.busy_resources[bus] < resources)

    def _cycle_boundary(self) -> None:
        self._cycle_armed = False
        self.cycles_run += 1
        # Reset cycle: release rows whose transmission finished.
        if self._finished_rows:
            self.switch.reset_cycle(self._finished_rows)
            for row in self._finished_rows:
                del self.bus_of_processor[row]
            self._finished_rows = []
        # Request cycle: the wavefront allocates.
        requesting = [p for p in range(self.config.processors)
                      if self.queues[p] and self.transmitting[p] is None]
        available = [b for b in range(self.config.outputs_per_network)
                     if self._bus_available(b)]
        if requesting and available:
            granted = self.switch.request_cycle(requesting, available).granted
            for row, bus in granted.items():
                self._start_transmission(row, bus)
        # Unsatisfied requests re-raise X at a later boundary.  A retry can
        # only succeed after the switch state changes, and every state
        # change (arrival, transmission end, service end) arms a boundary,
        # so the boundary never needs to re-arm itself — which also keeps
        # the gate_time = 0 degenerate case free of zero-delay livelock.

    def _start_transmission(self, processor: int, bus: int) -> None:
        task = self.queues[processor].popleft()
        task.transmission_started = self.env.now
        task.port = bus
        self.transmitting[processor] = task
        self.bus_of_processor[processor] = bus
        self.metrics.transmission_started(self.env.now, task.queueing_delay)
        duration = self.workload.next_transmission(self.streams.stream("tx"))
        self.env.timeout(duration).add_callback(
            lambda _event, p=processor, b=bus: self._end_transmission(p, b))

    def _end_transmission(self, processor: int, bus: int) -> None:
        task = self.transmitting[processor]
        if task is None:
            raise SimulationError("transmission ended with no task (bug)")
        task.transmission_finished = self.env.now
        self.transmitting[processor] = None
        self.busy_resources[bus] += 1
        # The row stays latched until the next reset cycle (the paper's
        # serial request/reset alternation).
        self._finished_rows.append(processor)
        self.metrics.transmission_finished(self.env.now)
        self._arm_cycle()
        duration = self.workload.next_service(self.streams.stream("service"))
        self.env.timeout(duration).add_callback(
            lambda _event, t=task, b=bus: self._end_service(t, b))

    def _end_service(self, task: Task, bus: int) -> None:
        task.service_finished = self.env.now
        self.busy_resources[bus] -= 1
        self.metrics.service_finished(self.env.now, task.response_time)
        self._arm_cycle()

    # -- running ---------------------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> SimulationResult:
        """Simulate up to ``horizon``; discard ``warmup``.  One call only."""
        if self._started:
            raise SimulationError("run may only be called once")
        check_window(horizon, warmup)
        self._started = True
        for processor in range(self.config.processors):
            self._schedule_arrival(processor)
        if warmup > 0:
            self.env.run(until=warmup)
            self.metrics.reset(self.env.now)
        self.env.run(until=horizon)
        return summarize(
            self.metrics,
            now=self.env.now,
            total_buses=self.config.outputs_per_network,
            total_resources=self.config.total_resources,
            blocking_fraction=0.0,
            measurement_start=warmup,
        )


def simulate_cycle_accurate(config, workload: Workload, horizon: float,
                            warmup: float = 0.0, gate_time: float = 0.0,
                            seed: int = 0) -> SimulationResult:
    """One-call front door for the cycle-accurate crossbar model."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    system = CycleAccurateCrossbarSystem(config, workload,
                                         gate_time=gate_time, seed=seed)
    return system.run(horizon=horizon, warmup=warmup)
