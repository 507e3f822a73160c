"""Multi-resource requests and deadlock: the problem the paper defers.

"Scheduling of multiresource requests is not studied here due to the
overhead and complexity in passing status information and resolving
deadlocks" (Section VII).  This module builds the minimal system in which
that complexity appears, so the deferral can be *measured* rather than
asserted: a non-blocking crossbar (network effects deliberately excluded)
in front of a pool of identical resources, where every task needs ``k``
resources simultaneously (a pipeline of function units, in the PUMPS
reading of Briggs et al.).

Three acquisition strategies:

* ``"atomic"``      — all-or-nothing: a task acquires only when ``k``
  resources are free, FIFO.  No partial holding, hence no deadlock, but
  head-of-line blocking (a big task at the head stalls small ones).
* ``"incremental"`` — hold-and-wait with an *uncoordinated race*: when
  resources free, every claimant (partial holders and new requests alike)
  grabs in random order — the distributed-capture behaviour the paper is
  worried about.  Partial holders can lose the race repeatedly and pile
  up until every resource is held by a waiter: a counting deadlock.  A
  structural detector finds the stuck state and aborts the youngest
  holder, which releases and retries.
* ``"claimed"``     — coordinated hold-and-wait: partial holders have
  absolute priority on released resources, and banker-style admission
  control caps concurrent partial holders at
  ``floor((m - 1) / (k - 1))``, so the free pool can never be exhausted
  entirely by stuck tasks (pigeonhole): deadlock-free by construction.
  (Ordered acquisition, the other textbook cure, does not apply here:
  the pool is *fungible* — any k resources do — so the deadlock is a
  counting deadlock, not a circular wait on specific items.)

The single-resource case (``k = 1``) reduces to the ordinary RSIN life
cycle, which ties this model back to the main simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Set

from repro.config import SystemConfig, check_window
from repro.core.metrics import MetricsCollector, SimulationResult, summarize
from repro.core.task import Task
from repro.errors import ConfigurationError, SimulationError
from repro.sim.environment import Environment
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import Workload

STRATEGIES = ("atomic", "incremental", "claimed")


@dataclass
class _MultiTask:
    """A task plus its resource-acquisition state."""

    task: Task
    needed: int
    held: Set[int] = field(default_factory=set)
    acquisition_started: Optional[float] = None

    @property
    def satisfied(self) -> bool:
        return len(self.held) >= self.needed


class MultiResourceSystem:
    """A crossbar RSIN whose tasks need ``k`` resources at once."""

    def __init__(self, config: SystemConfig, workload: Workload,
                 resources_needed: int = 2, strategy: str = "atomic",
                 seed: int = 0):
        if config.network_type != "XBAR" or config.num_networks != 1:
            raise ConfigurationError(
                "multi-resource model supports a single crossbar (XBAR) "
                f"partition, got {config}")
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        total = config.total_resources
        if not 1 <= resources_needed <= total:
            raise ConfigurationError(
                f"resources_needed must be in 1..{total}, got {resources_needed}")
        self.config = config
        self.workload = workload
        self.resources_needed = resources_needed
        self.strategy = strategy
        self.streams = RandomStreams(seed)
        self.env = Environment()
        self.metrics = MetricsCollector(service_rate=workload.service_rate)
        self.free: List[int] = list(range(int(total)))  # ascending identity
        self.queues: List[Deque[_MultiTask]] = [
            deque() for _ in range(config.processors)]
        #: Tasks holding some resources and waiting for more (hold-and-wait).
        self.waiting_holders: List[_MultiTask] = []
        #: FIFO of processors whose head task awaits acquisition (atomic).
        self._acquire_order: Deque[int] = deque()
        self.serving_count = 0
        self.transmitting_count = 0
        self.deadlocks_detected = 0
        self.aborts = 0
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
        self.queues[processor].append(
            _MultiTask(task=task, needed=self.resources_needed))
        self.metrics.task_generated(self.env.now)
        if len(self.queues[processor]) == 1:
            self._acquire_order.append(processor)
        self._try_grants()
        self._schedule_arrival(processor)

    # -- acquisition ---------------------------------------------------------
    def _take_lowest_free(self) -> int:
        lowest = min(self.free)
        self.free.remove(lowest)
        return lowest

    def _try_grants(self) -> None:
        if self.strategy == "atomic":
            self._grant_atomic()
        else:
            self._grant_incremental()
            self._check_deadlock()

    def _grant_atomic(self) -> None:
        # Strict FIFO over processors' head tasks: the head blocks the rest.
        while self._acquire_order:
            processor = self._acquire_order[0]
            queue = self.queues[processor]
            if not queue:
                self._acquire_order.popleft()
                continue
            head = queue[0]
            if len(self.free) < head.needed:
                return  # head-of-line blocking: nobody behind may jump
            for _ in range(head.needed):
                head.held.add(self._take_lowest_free())
            queue.popleft()
            self._acquire_order.popleft()
            if queue:
                self._acquire_order.append(processor)
            self._start_transmission(head)

    def _holder_cap(self) -> float:
        """Max concurrent partial holders under the claimed strategy."""
        if self.strategy != "claimed" or self.resources_needed < 2:
            return float("inf")
        total = int(self.config.total_resources)
        return max(1, (total - 1) // (self.resources_needed - 1))

    def _claimants(self):
        """Parties contending for free resources, in this round's order.

        Claimed: partial holders strictly first (they release soonest),
        then queue heads.  Incremental: one shuffled list — the
        uncoordinated capture race of a fully distributed system.
        """
        holders = list(self.waiting_holders)
        heads = [self.queues[p][0] for p in range(self.config.processors)
                 if self.queues[p]]
        if self.strategy == "claimed":
            return holders + heads
        combined = holders + heads
        self.streams.shuffle("capture-race", combined)
        return combined

    def _grant_incremental(self) -> None:
        cap = self._holder_cap()
        progress = True
        while progress and self.free:
            progress = False
            for claimant in self._claimants():
                if not self.free:
                    break
                is_new = claimant not in self.waiting_holders
                if is_new and len(self.free) < claimant.needed \
                        and len(self.waiting_holders) >= cap:
                    continue  # admission control: would risk deadlock
                if claimant.acquisition_started is None:
                    claimant.acquisition_started = self.env.now
                claimant.held.add(self._take_lowest_free())
                progress = True
                if is_new:
                    self.queues[claimant.task.processor].popleft()
                if claimant.satisfied:
                    if not is_new:
                        self.waiting_holders.remove(claimant)
                    self._start_transmission(claimant)
                elif is_new:
                    self.waiting_holders.append(claimant)

    def _check_deadlock(self) -> None:
        """Structural detection: every resource is held by a waiter.

        With no free resources, no task in transmission or service (the
        only states that ever release), and at least one holder waiting,
        nothing can make progress: a counting deadlock.  Resolution:
        abort the youngest waiting holder (most recent acquisition start),
        releasing its resources; it re-queues and retries.
        """
        if (self.free or self.serving_count or self.transmitting_count
                or not self.waiting_holders):
            return
        self.deadlocks_detected += 1
        if self.strategy == "claimed":
            raise SimulationError(
                "deadlock under claimed admission control (theory violated: bug)")
        victim = max(self.waiting_holders,
                     key=lambda holder: holder.acquisition_started or 0.0)
        self.waiting_holders.remove(victim)
        self.aborts += 1
        self.free.extend(victim.held)
        victim.held = set()
        victim.acquisition_started = None
        self.queues[victim.task.processor].appendleft(victim)
        self._try_grants()

    # -- task life cycle -------------------------------------------------------
    def _start_transmission(self, entry: _MultiTask) -> None:
        task = entry.task
        task.transmission_started = self.env.now
        self.transmitting_count += 1
        self.metrics.transmission_started(self.env.now, task.queueing_delay)
        duration = self.workload.next_transmission(self.streams.stream("tx"))
        self.env.timeout(duration).add_callback(
            lambda _event, e=entry: self._end_transmission(e))

    def _end_transmission(self, entry: _MultiTask) -> None:
        entry.task.transmission_finished = self.env.now
        self.transmitting_count -= 1
        self.serving_count += 1
        self.metrics.transmission_finished(self.env.now)
        duration = self.workload.next_service(self.streams.stream("service"))
        self.env.timeout(duration).add_callback(
            lambda _event, e=entry: self._end_service(e))

    def _end_service(self, entry: _MultiTask) -> None:
        entry.task.service_finished = self.env.now
        self.serving_count -= 1
        self.free.extend(entry.held)
        entry.held = set()
        self.metrics.service_finished(self.env.now, entry.task.response_time)
        self._try_grants()

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
            total_buses=self.config.processors,
            total_resources=self.config.total_resources,
            blocking_fraction=0.0,
            measurement_start=warmup,
        )


def simulate_multi_resource(config, workload: Workload, horizon: float,
                            warmup: float = 0.0, resources_needed: int = 2,
                            strategy: str = "atomic",
                            seed: int = 0) -> SimulationResult:
    """One-call front door; the system object keeps the deadlock counters."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    system = MultiResourceSystem(config, workload,
                                 resources_needed=resources_needed,
                                 strategy=strategy, seed=seed)
    return system.run(horizon=horizon, warmup=warmup)
