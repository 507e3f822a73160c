"""Centralized scheduling as a queueing bottleneck (Section I's motivation).

"This sequential service of requests is a major overhead in a resource-
sharing environment and may become a bottleneck."  The distributed designs
of Sections III-V exist to remove a *serial* scheduler from the request
path; this model prices the alternative so the claim can be measured.

The system is a non-blocking crossbar RSIN in which every request must
first pass through one central allocator:

* requests queue FIFO at the scheduler;
* the scheduler spends ``scheduling_time`` per request finding a free
  resource and setting the crosspoint (the O(m) tree walk or O(log m)
  priority circuit of the baselines, expressed in real time);
* if no resource is free when a request reaches the head, the scheduler
  stalls until one is released (it cannot work on later requests — the
  sequential-service assumption the paper criticizes);
* from grant onward the task behaves exactly as in the distributed
  system: transmit, disconnect, serve.

With ``scheduling_time = 0`` the model coincides with the event-driven
crossbar simulator under FIFO arbitration — the cross-validation hook.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.config import SystemConfig, check_window
from repro.core.metrics import MetricsCollector, SimulationResult, summarize
from repro.core.task import Task
from repro.errors import ConfigurationError, SimulationError
from repro.sim.environment import Environment
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import Workload


class CentralizedSchedulerSystem:
    """A crossbar RSIN whose requests are served by one serial scheduler."""

    def __init__(self, config: SystemConfig, workload: Workload,
                 scheduling_time: float = 0.0, seed: int = 0):
        if config.network_type != "XBAR" or config.num_networks != 1:
            raise ConfigurationError(
                "centralized model supports a single crossbar (XBAR) "
                f"partition, got {config}")
        if scheduling_time < 0:
            raise ConfigurationError(
                f"scheduling_time must be >= 0, got {scheduling_time}")
        self.config = config
        self.workload = workload
        self.scheduling_time = scheduling_time
        self.streams = RandomStreams(seed)
        self.env = Environment()
        self.metrics = MetricsCollector(service_rate=workload.service_rate)
        processors = config.processors
        buses = config.outputs_per_network
        self.queues: List[Deque[Task]] = [deque() for _ in range(processors)]
        self.transmitting: List[Optional[Task]] = [None] * processors
        self.bus_busy: List[bool] = [False] * buses
        self.busy_resources: List[int] = [0] * buses
        #: FIFO of processor indices whose head task awaits the scheduler.
        self.scheduler_queue: Deque[int] = deque()
        self._in_scheduler_queue: List[bool] = [False] * processors
        self._scheduler_busy = False
        self._head_stalled = False
        self._task_counter = 0
        self._started = False

    # -- workload -----------------------------------------------------------
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
        self._enqueue_request(processor)
        self._schedule_arrival(processor)

    # -- the central scheduler ------------------------------------------------
    def _enqueue_request(self, processor: int) -> None:
        """Put a processor's head-of-line request in the scheduler FIFO."""
        if (self._in_scheduler_queue[processor]
                or self.transmitting[processor] is not None
                or not self.queues[processor]):
            return
        self._in_scheduler_queue[processor] = True
        self.scheduler_queue.append(processor)
        self._run_scheduler()

    def _run_scheduler(self) -> None:
        if self._scheduler_busy or self._head_stalled or not self.scheduler_queue:
            return
        self._scheduler_busy = True
        done = self.env.timeout(self.scheduling_time)
        done.add_callback(lambda _event: self._scheduling_finished())

    def _free_bus(self) -> Optional[int]:
        resources = self.config.resources_per_port
        for bus in range(self.config.outputs_per_network):
            if not self.bus_busy[bus] and self.busy_resources[bus] < resources:
                return bus
        return None

    def _scheduling_finished(self) -> None:
        self._scheduler_busy = False
        if not self.scheduler_queue:
            raise SimulationError("scheduler finished with an empty queue")
        bus = self._free_bus()
        if bus is None:
            # Head-of-line blocking: the serial scheduler stalls until a
            # resource is released (Section I's bottleneck, literally).
            self._head_stalled = True
            return
        processor = self.scheduler_queue.popleft()
        self._in_scheduler_queue[processor] = False
        self._grant(processor, bus)
        self._run_scheduler()

    def _resource_released(self) -> None:
        if self._head_stalled:
            self._head_stalled = False
            bus = self._free_bus()
            if bus is None:
                self._head_stalled = True
                return
            processor = self.scheduler_queue.popleft()
            self._in_scheduler_queue[processor] = False
            self._grant(processor, bus)
        self._run_scheduler()

    # -- task life cycle ----------------------------------------------------------
    def _grant(self, processor: int, bus: int) -> None:
        task = self.queues[processor].popleft()
        task.transmission_started = self.env.now
        task.port = bus
        self.transmitting[processor] = task
        self.bus_busy[bus] = True
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
        self.bus_busy[bus] = False
        self.busy_resources[bus] += 1
        self.metrics.transmission_finished(self.env.now)
        duration = self.workload.next_service(self.streams.stream("service"))
        self.env.timeout(duration).add_callback(
            lambda _event, t=task, b=bus: self._end_service(t, b))
        # This processor's next task may now request.
        self._enqueue_request(processor)
        # A bus was released (buses count as grant capacity too).
        self._resource_released()

    def _end_service(self, task: Task, bus: int) -> None:
        task.service_finished = self.env.now
        self.busy_resources[bus] -= 1
        self.metrics.service_finished(self.env.now, task.response_time)
        self._resource_released()

    # -- running -----------------------------------------------------------------
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


def simulate_centralized(config, workload: Workload, horizon: float,
                         warmup: float = 0.0, scheduling_time: float = 0.0,
                         seed: int = 0) -> SimulationResult:
    """One-call front door for the centralized-scheduler comparison."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    system = CentralizedSchedulerSystem(config, workload,
                                        scheduling_time=scheduling_time,
                                        seed=seed)
    return system.run(horizon=horizon, warmup=warmup)
