"""The RSIN system simulator: processors, ports, resources, and a fabric.

Implements the task life cycle of Section II under assumptions (a)-(f):

1. a task arrives at its processor and joins the FIFO queue;
2. when the processor is idle (one transmission at a time) and the network
   can reach an output port whose bus is free and which has a free
   resource, a circuit is established and transmission starts;
3. at end of transmission the circuit is dropped, the bus is freed, and the
   resource serves the task with no further network involvement;
4. at end of service the resource returns to the pool.

Status broadcasts: every transmission/service completion re-offers the
network to the blocked processors of the affected partition; the order in
which they retry is the arbitration policy ("priority" reproduces the
asymmetric hardware, "random" the token scheme, "fifo" an idealized fair
arbiter).

Partitions (``i`` independent RSINs) are fully independent: each has its
own fabric and ports, and processors are assigned contiguously.

Fault tolerance (``config.faults``): a
:class:`~repro.faults.injector.FaultInjector` marks buses, resources, and
fabric components down and up mid-run through the ``fail_*`` / ``repair_*``
hooks below.  A failure severs any in-flight transmission through the dead
component: the circuit is torn down, the bus freed, and the task re-enters
its processor after an exponential-backoff delay (``FaultConfig.retry``).
Tasks whose retry budget is spent, or which age past the per-processor
queue timeout, are abandoned and surface in
:attr:`SimulationResult.abandoned_tasks`.  With no fault configuration
every code path below reduces to the healthy paper model, event for event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.config import SystemConfig, check_window
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    RetryExhaustedError,
    SimulationError,
)
from repro.networks.base import Connection, NetworkFabric, SingleBusFabric
from repro.networks.crossbar import CrossbarFabric
from repro.networks.omega import MultistageFabric
from repro.networks.topology import make_topology
from repro.core.metrics import MetricsCollector, SimulationResult, summarize
from repro.core.task import Task
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import Workload

ARBITRATION_POLICIES = ("priority", "random", "fifo")


def build_fabric(config: SystemConfig, partition: int,
                 streams: RandomStreams) -> NetworkFabric:
    """Construct the fabric for one partition of ``config``."""
    kind = config.network_type
    if kind == "SBUS":
        return SingleBusFabric(inputs=config.processors_per_network)
    if kind == "XBAR":
        return CrossbarFabric(
            inputs=config.inputs_per_network,
            outputs=config.outputs_per_network,
            rng=streams.stream(f"xbar-arbitration-{partition}"),
        )
    if kind in ("OMEGA", "CUBE", "BASELINE"):
        return MultistageFabric(make_topology(kind, config.inputs_per_network))
    raise ConfigurationError(f"no fabric for network type {kind!r}")


@dataclass
class _Port:
    """One output port: a bus with ``r`` resources hanging on it.

    ``failed`` marks the bus itself down; ``failed_resources`` counts
    resources currently out of the pool, and ``pending_resource_failures``
    holds fail-stop notices for resources that were busy when their failure
    arrived (they finish the task in hand, then leave the pool).
    """

    partition: int
    index: int
    resources: Union[int, float]
    bus_busy: bool = False
    busy_resources: int = 0
    failed: bool = False
    failed_resources: int = 0
    pending_resource_failures: int = 0

    @property
    def can_accept(self) -> bool:
        """Bus free and at least one resource free (may start a transmission)."""
        return (not self.failed and not self.bus_busy
                and self.busy_resources + self.failed_resources < self.resources)


class _Processor:
    """One processor: a FIFO queue and at most one ongoing transmission."""

    __slots__ = ("index", "partition", "local_input", "queue", "transmitting")

    def __init__(self, index: int, partition: int, local_input: int):
        self.index = index
        self.partition = partition
        self.local_input = local_input
        self.queue: Deque[Task] = deque()
        self.transmitting: Optional[Task] = None


class RsinSystem:
    """An executable RSIN configuration.

    >>> from repro import RsinSystem, SystemConfig, Workload
    >>> system = RsinSystem(SystemConfig.parse("16/1x16x32 XBAR/1"),
    ...                     Workload(0.05, 1.0, 0.1), seed=1)
    >>> result = system.run(horizon=2000.0, warmup=200.0)

    The simulator is event-driven on the :mod:`repro.sim` kernel; a run is
    reproducible given (config, workload, seed, arbitration) — including
    the fault schedule, which draws from its own named random streams.
    """

    def __init__(self, config: SystemConfig, workload: Workload, seed: int = 0,
                 arbitration: str = "priority"):
        if arbitration not in ARBITRATION_POLICIES:
            raise ConfigurationError(
                f"unknown arbitration {arbitration!r}; "
                f"expected one of {ARBITRATION_POLICIES}")
        self.config = config
        self.workload = workload
        self.arbitration = arbitration
        self.streams = RandomStreams(seed)
        self.env = Environment()
        self.metrics = MetricsCollector(service_rate=workload.service_rate)
        self.fabrics: List[NetworkFabric] = [
            build_fabric(config, partition, self.streams)
            for partition in range(config.num_networks)
        ]
        per_network = config.processors_per_network
        # For port-per-processor fabrics the local input is the processor's
        # offset in its partition; bus fabrics use the same numbering (the
        # SingleBusFabric accepts any of its p inputs).
        self.processors: List[_Processor] = [
            _Processor(index=p, partition=p // per_network,
                       local_input=p % per_network)
            for p in range(config.processors)
        ]
        self.ports: List[List[_Port]] = [
            [_Port(partition=g, index=k, resources=config.resources_per_port)
             for k in range(config.outputs_per_network)]
            for g in range(config.num_networks)
        ]
        self._task_counter = 0
        self._connections: Dict[int, Connection] = {}
        self._transmission_timers: Dict[int, Event] = {}
        self._started = False
        self._retry = None
        self._injector = None
        if config.faults is not None:
            from repro.faults.injector import FaultInjector
            self._retry = config.faults.retry
            self._injector = FaultInjector(self, config.faults)
        from repro.sim.stats import TallyStat
        #: Per-processor queueing-delay tallies (fairness analysis).
        self.processor_delays = [TallyStat(f"delay-p{p}")
                                 for p in range(config.processors)]

    # -- arrival machinery -------------------------------------------------
    def _schedule_arrival(self, processor: _Processor) -> None:
        delay = self.workload.next_interarrival(
            self.streams.stream(f"arrivals-{processor.index}"))
        event = self.env.timeout(delay)
        event.add_callback(lambda _event, proc=processor: self._arrive(proc))

    def _arrive(self, processor: _Processor) -> None:
        self._task_counter += 1
        task = Task(task_id=self._task_counter, processor=processor.index,
                    created=self.env.now)
        processor.queue.append(task)
        self.metrics.task_generated(self.env.now)
        self._try_dispatch(processor)
        self._schedule_arrival(processor)

    # -- dispatch ------------------------------------------------------------
    def _candidate_ports(self, partition: int) -> List[int]:
        return [port.index for port in self.ports[partition] if port.can_accept]

    def _expire_queue(self, processor: _Processor) -> None:
        """Abandon queued tasks that aged past the per-processor timeout."""
        if self._retry is None or self._retry.task_timeout == math.inf:
            return
        now = self.env.now
        kept: Deque[Task] = deque()
        for task in processor.queue:
            if self._retry.expired(now - task.created):
                task.abandoned = True
                self.metrics.task_abandoned(now, queued=True)
            else:
                kept.append(task)
        processor.queue = kept

    def _try_dispatch(self, processor: _Processor) -> bool:
        self._expire_queue(processor)
        if processor.transmitting is not None or not processor.queue:
            return False
        partition = processor.partition
        candidates = self._candidate_ports(partition)
        if not candidates:
            return False
        fabric = self.fabrics[partition]
        connection = fabric.connect(processor.local_input, candidates)
        if connection is None:
            return False
        task = processor.queue.popleft()
        port = self.ports[partition][connection.output_port]
        if port.bus_busy:
            raise SimulationError("connected to a busy bus (scheduler bug)")
        port.bus_busy = True
        processor.transmitting = task
        task.transmission_started = self.env.now
        task.port = partition * self.config.outputs_per_network + port.index
        task.network_hops = connection.hops
        self._connections[task.task_id] = connection
        # The queueing delay is sampled once per task, at its first dispatch;
        # a retry re-dispatch only moves the occupancy statistics.
        waited = task.queueing_delay if task.attempts == 0 else None
        self.metrics.transmission_started(self.env.now, waited)
        if waited is not None:
            self.processor_delays[processor.index].record(waited)
        duration = self.workload.next_transmission(
            self.streams.stream(f"transmission-{partition}"))
        done = self.env.timeout(duration)
        self._transmission_timers[task.task_id] = done
        done.add_callback(
            lambda event, t=task, pr=processor, po=port:
            self._end_transmission(event, t, pr, po))
        return True

    def _end_transmission(self, event: Event, task: Task,
                          processor: _Processor, port: _Port) -> None:
        if self._transmission_timers.get(task.task_id) is not event:
            return  # stale timer of a transmission severed by a fault
        del self._transmission_timers[task.task_id]
        task.transmission_finished = self.env.now
        port.bus_busy = False
        port.busy_resources += 1
        if port.busy_resources > port.resources:
            raise SimulationError("more busy resources than attached (scheduler bug)")
        processor.transmitting = None
        connection = self._connections.pop(task.task_id)
        self.fabrics[processor.partition].release(connection)
        self.metrics.transmission_finished(self.env.now)
        duration = self.workload.next_service(
            self.streams.stream(f"service-{processor.partition}"))
        done = self.env.timeout(duration)
        done.add_callback(lambda _event, t=task, po=port: self._end_service(t, po))
        self._broadcast_status(processor.partition)

    def _end_service(self, task: Task, port: _Port) -> None:
        task.service_finished = self.env.now
        port.busy_resources -= 1
        if port.busy_resources < 0:
            raise SimulationError("negative busy resources (scheduler bug)")
        if port.pending_resource_failures > 0:
            # Fail-stop at the job boundary: the resource that just finished
            # absorbs an outstanding failure instead of rejoining the pool.
            port.pending_resource_failures -= 1
            port.failed_resources += 1
        self.metrics.service_finished(self.env.now, task.response_time)
        self._broadcast_status(port.partition)

    def _broadcast_status(self, partition: int) -> None:
        """Status change: wake blocked processors in arbitration order."""
        per_network = self.config.processors_per_network
        start = partition * per_network
        waiting = [proc for proc in self.processors[start:start + per_network]
                   if proc.queue and proc.transmitting is None]
        if not waiting:
            return
        if self.arbitration == "priority":
            waiting.sort(key=lambda proc: proc.index)
        elif self.arbitration == "fifo":
            waiting.sort(key=lambda proc: proc.queue[0].created)
        else:
            self.streams.shuffle(f"wake-{partition}", waiting)
        for processor in waiting:
            self._try_dispatch(processor)

    # -- fault hooks ---------------------------------------------------------
    def _partition_processors(self, partition: int) -> List[_Processor]:
        per_network = self.config.processors_per_network
        start = partition * per_network
        return self.processors[start:start + per_network]

    def fail_bus(self, partition: int, port_index: int) -> None:
        """An output-port bus goes down, severing any transmission on it."""
        port = self.ports[partition][port_index]
        if port.failed:
            raise FaultInjectionError(
                f"bus ({partition}, {port_index}) is already down")
        port.failed = True
        if port.bus_busy:
            task, processor = self._find_transmission(partition, port_index)
            self._sever_transmission(task, processor, port,
                                     fabric_released=False)

    def repair_bus(self, partition: int, port_index: int) -> None:
        """A failed bus comes back; blocked processors are re-offered it."""
        port = self.ports[partition][port_index]
        if not port.failed:
            raise FaultInjectionError(
                f"bus ({partition}, {port_index}) is not down")
        port.failed = False
        self._broadcast_status(partition)

    def fail_resource(self, partition: int, port_index: int) -> None:
        """One resource at a port fail-stops (deferred if currently busy)."""
        port = self.ports[partition][port_index]
        if port.busy_resources + port.failed_resources < port.resources:
            port.failed_resources += 1
        else:
            port.pending_resource_failures += 1

    def repair_resource(self, partition: int, port_index: int) -> None:
        """One failed resource at a port rejoins the pool."""
        port = self.ports[partition][port_index]
        if port.pending_resource_failures > 0:
            port.pending_resource_failures -= 1
        elif port.failed_resources > 0:
            port.failed_resources -= 1
            self._broadcast_status(partition)
        else:
            raise FaultInjectionError(
                f"no failed resource to repair at port "
                f"({partition}, {port_index})")

    def fail_fabric_component(self, partition: int, component: Tuple) -> None:
        """An internal fabric component dies; circuits through it sever."""
        fabric = self.fabrics[partition]
        severed = fabric.fail_component(component)
        for connection in severed:
            task, processor = self._find_connection_task(partition, connection)
            port = self.ports[partition][connection.output_port]
            self._sever_transmission(task, processor, port,
                                     fabric_released=True)

    def repair_fabric_component(self, partition: int, component: Tuple) -> None:
        """A fabric component comes back; blocked processors retry."""
        self.fabrics[partition].repair_component(component)
        self._broadcast_status(partition)

    def _find_transmission(self, partition: int,
                           port_index: int) -> Tuple[Task, _Processor]:
        global_port = partition * self.config.outputs_per_network + port_index
        for processor in self._partition_processors(partition):
            task = processor.transmitting
            if task is not None and task.port == global_port:
                return task, processor
        raise FaultInjectionError(
            f"busy bus ({partition}, {port_index}) has no transmitting task "
            "(scheduler bug)")

    def _find_connection_task(self, partition: int,
                              connection: Connection) -> Tuple[Task, _Processor]:
        for processor in self._partition_processors(partition):
            task = processor.transmitting
            if (task is not None
                    and self._connections.get(task.task_id) is connection):
                return task, processor
        raise FaultInjectionError(
            "severed connection has no transmitting task (scheduler bug)")

    # -- severing and retry ----------------------------------------------------
    def _sever_transmission(self, task: Task, processor: _Processor,
                            port: _Port, fabric_released: bool) -> None:
        """Unwind an in-flight transmission cut by a fault."""
        self._transmission_timers.pop(task.task_id, None)
        connection = self._connections.pop(task.task_id)
        if not fabric_released:
            self.fabrics[processor.partition].release(connection)
        port.bus_busy = False
        processor.transmitting = None
        task.attempts += 1
        self.metrics.transmission_severed(self.env.now)
        self._schedule_retry(task, processor)

    def _schedule_retry(self, task: Task, processor: _Processor) -> None:
        if self._retry is None:
            # Faults injected by hand on a system without a fault config:
            # retry immediately and indefinitely (legacy permissive mode).
            self._requeue(task, processor)
            return
        try:
            delay = self._retry.next_delay(
                task.attempts, self.streams.stream(f"backoff-{task.processor}"))
        except RetryExhaustedError:
            task.abandoned = True
            self.metrics.task_abandoned(self.env.now, queued=False)
            return
        timer = self.env.timeout(delay)
        timer.add_callback(
            lambda _event, t=task, pr=processor: self._requeue(t, pr))

    def _requeue(self, task: Task, processor: _Processor) -> None:
        """A severed task re-enters its processor queue (at the front)."""
        processor.queue.appendleft(task)
        self.metrics.task_retried(self.env.now)
        self._try_dispatch(processor)

    # -- running -----------------------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> SimulationResult:
        """Simulate up to ``horizon`` time units; discard ``warmup``.

        May be called once per system instance.
        """
        if self._started:
            raise SimulationError("RsinSystem.run may only be called once")
        check_window(horizon, warmup)
        self._started = True
        if self._injector is not None:
            self._injector.install()
        for processor in self.processors:
            self._schedule_arrival(processor)
        if warmup > 0:
            self.env.run(until=warmup)
            self.metrics.reset(self.env.now)
            for tally in self.processor_delays:
                tally.reset()
            for fabric in self.fabrics:
                fabric.connect_attempts = 0
                fabric.connect_blocked = 0
        self.env.run(until=horizon)
        attempts = sum(fabric.connect_attempts for fabric in self.fabrics)
        blocked = sum(fabric.connect_blocked for fabric in self.fabrics)
        total_resources = (
            self.config.total_resources
            if self.config.total_resources != math.inf else math.inf
        )
        return summarize(
            self.metrics,
            now=self.env.now,
            total_buses=self.config.total_ports,
            total_resources=total_resources,
            blocking_fraction=(blocked / attempts if attempts else 0.0),
            measurement_start=warmup,
            availability=(self._injector.report(self.env.now)
                          if self._injector is not None else None),
        )


def simulate(config: Union[SystemConfig, str], workload: Workload,
             horizon: float, warmup: float = 0.0, seed: int = 0,
             arbitration: str = "priority") -> SimulationResult:
    """One-call front door: build a system, run it, return the summary."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    system = RsinSystem(config, workload, seed=seed, arbitration=arbitration)
    return system.run(horizon=horizon, warmup=warmup)
