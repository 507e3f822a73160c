"""Packet-switched multistage RSIN: the alternative Section II argues against.

The paper chooses circuit switching for RSINs and gives two reasons:

1. a resource "cannot be processed until it is completely received", so
   splitting a task into packets delays service start by the store-and-
   forward latency without any pipelining benefit at the resource;
2. a blocked *request* is cheap to re-route, while a blocked *packet*
   belongs to a committed transfer.

This module builds the comparison system: a buffered packet-switched
multistage network (in the style of Dias & Jump's buffered delta networks)
carrying the same workload as :class:`~repro.core.system.RsinSystem`:

* a task is addressed to a specific output port chosen when it leaves the
  processor queue (packet switching needs a destination up front, so the
  scheduler reserves a free resource then — address-mapping operation);
* the task's transmission time is split evenly over ``packets_per_task``
  packets; each packet store-and-forwards through the ``log2 N`` stages,
  queueing FIFO at every link (infinite buffers);
* the resource starts serving only when the **last** packet arrives.

Delays are measured with the same estimators as the circuit simulator, so
``compare`` in the benchmarks is apples to apples: identical arrival
streams, transmission totals, and service demands.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.config import SystemConfig, check_window
from repro.core.metrics import MetricsCollector, SimulationResult, summarize
from repro.core.task import Task
from repro.errors import ConfigurationError, SimulationError
from repro.networks.topology import Link, MultistageTopology, make_topology
from repro.sim.environment import Environment
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import Workload


@dataclass
class _Packet:
    """One packet of a task in flight."""

    task: Task
    index: int                      # 0 .. packets_per_task - 1
    path: List[Link]                # links still to traverse (front first)
    transfer_time: float


class _LinkServer:
    """A FIFO link: one packet in transfer at a time, unbounded buffer."""

    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        self.busy = False
        self.queue: Deque[_Packet] = deque()


class PacketSwitchedSystem:
    """Event-driven packet-switched RSIN over a multistage topology.

    Only multistage configurations are meaningful here (``OMEGA``, ``CUBE``
    or ``BASELINE`` with a single partition); the point of the model is the
    per-stage store-and-forward behaviour.
    """

    def __init__(self, config: SystemConfig, workload: Workload,
                 packets_per_task: int = 4, seed: int = 0):
        if config.network_type not in ("OMEGA", "CUBE", "BASELINE"):
            raise ConfigurationError(
                "packet switching is modelled for multistage networks, "
                f"not {config.network_type}")
        if config.num_networks != 1:
            raise ConfigurationError(
                "packet model supports a single network partition")
        if packets_per_task < 1:
            raise ConfigurationError(
                f"packets_per_task must be >= 1, got {packets_per_task}")
        self.config = config
        self.workload = workload
        self.packets_per_task = packets_per_task
        self.topology: MultistageTopology = make_topology(
            config.network_type, config.inputs_per_network)
        self.streams = RandomStreams(seed)
        self.env = Environment()
        self.metrics = MetricsCollector(service_rate=workload.service_rate)
        size = self.topology.size
        self.queues: List[Deque[Task]] = [deque() for _ in range(size)]
        self.injecting: List[bool] = [False] * size
        self.free_resources: List[int] = [
            int(config.resources_per_port)] * size
        self.links: Dict[Link, _LinkServer] = {
            (column, index): _LinkServer()
            for column in range(self.topology.stages + 1)
            for index in range(size)
        }
        self._pending_packets: Dict[int, int] = {}   # task_id -> not yet arrived
        self._task_counter = 0
        self._started = False

    # -- arrivals -----------------------------------------------------------
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
        self._try_dispatch(processor)
        self._schedule_arrival(processor)

    # -- dispatch ---------------------------------------------------------------
    def _pick_port(self) -> Optional[int]:
        candidates = [port for port, free in enumerate(self.free_resources)
                      if free > 0]
        if not candidates:
            return None
        return self.streams.choice("port-choice", candidates)

    def _try_dispatch(self, processor: int) -> None:
        if self.injecting[processor] or not self.queues[processor]:
            return
        port = self._pick_port()
        if port is None:
            return
        task = self.queues[processor].popleft()
        self.free_resources[port] -= 1          # destination fixed up front
        task.port = port
        task.transmission_started = self.env.now
        self.metrics.transmission_started(self.env.now, task.queueing_delay)
        self.injecting[processor] = True
        total_transmission = self.workload.next_transmission(
            self.streams.stream("transmission"))
        per_packet = total_transmission / self.packets_per_task
        path = self.topology.route_by_tag(processor, port)
        self._pending_packets[task.task_id] = self.packets_per_task
        # Packets enter the injection link back to back; the link server
        # serializes them, so later packets queue naturally.
        for index in range(self.packets_per_task):
            packet = _Packet(task=task, index=index, path=list(path),
                             transfer_time=per_packet)
            self._offer(packet)
        # The processor is free to line up its next task once the last
        # packet has been handed to the injection link; that happens when
        # the injection link finishes serving them all — modelled by the
        # sentinel packet count below (checked in _packet_arrived_at_port
        # and _finish_transfer).

    def _offer(self, packet: _Packet) -> None:
        link = packet.path[0]
        server = self.links[link]
        if server.busy:
            server.queue.append(packet)
        else:
            self._start_transfer(link, packet)

    def _start_transfer(self, link: Link, packet: _Packet) -> None:
        server = self.links[link]
        server.busy = True
        done = self.env.timeout(packet.transfer_time)
        done.add_callback(
            lambda _event, l=link, p=packet: self._finish_transfer(l, p))

    def _finish_transfer(self, link: Link, packet: _Packet) -> None:
        server = self.links[link]
        packet.path.pop(0)
        if packet.path:
            self._offer(packet)
        else:
            self._packet_delivered(packet)
        if link[0] == 0 and not server.queue:
            # Injection link drained: the processor may start its next task.
            processor = link[1]
            self.injecting[processor] = False
            self._try_dispatch(processor)
        if server.queue:
            self._start_transfer(link, server.queue.popleft())
        else:
            server.busy = False

    # -- delivery and service ------------------------------------------------
    def _packet_delivered(self, packet: _Packet) -> None:
        task = packet.task
        remaining = self._pending_packets[task.task_id] - 1
        self._pending_packets[task.task_id] = remaining
        if remaining > 0:
            return
        del self._pending_packets[task.task_id]
        task.transmission_finished = self.env.now
        self.metrics.transmission_finished(self.env.now)
        duration = self.workload.next_service(self.streams.stream("service"))
        done = self.env.timeout(duration)
        done.add_callback(lambda _event, t=task: self._finish_service(t))

    def _finish_service(self, task: Task) -> None:
        task.service_finished = self.env.now
        self.free_resources[task.port] += 1
        self.metrics.service_finished(self.env.now, task.response_time)
        # A resource freed: blocked processors may dispatch.
        for processor in range(self.topology.size):
            self._try_dispatch(processor)

    # -- running --------------------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> SimulationResult:
        """Simulate up to ``horizon``; discard ``warmup``.  One call only."""
        if self._started:
            raise SimulationError("PacketSwitchedSystem.run may only run once")
        check_window(horizon, warmup)
        self._started = True
        for processor in range(self.topology.size):
            self._schedule_arrival(processor)
        if warmup > 0:
            self.env.run(until=warmup)
            self.metrics.reset(self.env.now)
        self.env.run(until=horizon)
        return summarize(
            self.metrics,
            now=self.env.now,
            total_buses=self.config.total_ports,
            total_resources=self.config.total_resources,
            blocking_fraction=0.0,   # packets queue instead of blocking
            measurement_start=warmup,
        )


def simulate_packet_switched(config, workload: Workload, horizon: float,
                             warmup: float = 0.0, packets_per_task: int = 4,
                             seed: int = 0) -> SimulationResult:
    """One-call front door for the packet-switched comparison system."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    system = PacketSwitchedSystem(config, workload,
                                  packets_per_task=packets_per_task, seed=seed)
    return system.run(horizon=horizon, warmup=warmup)
