"""Exact Markov analysis of *small* multiple-shared-bus systems.

Section IV: "A Markovian analysis similar to that of the single bus is
difficult due to the extensive number of states.  For a system with m
buses and r resources on each bus, the number of states in each stage is
(r + 1)^m.  The analysis method shown in the last section can only be
applied when m is very small."

This module applies it when m *is* very small.  The state is

    (queued, (bus_0, busy_0), (bus_1, busy_1), ..., (bus_{m-1}, busy_{m-1}))

with ``bus_j`` in {0, 1} (transmitting) and ``busy_j`` in 0..r; the
dispatch discipline matches the event simulator's "priority" arbitration
(a task always takes the lowest-indexed port whose bus is free and which
has a free resource).  Aggregate Poisson arrivals at rate ``p * lambda``
(the same infinite-source reading as the Section III chain).

The chain is solved by level truncation through the generic
:class:`~repro.markov.ctmc.FiniteCTMC`; with m = 1 it coincides exactly
with the :class:`~repro.markov.sbus_chain.SbusChain`, and the test suite
pins both that and the crossbar event simulator against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import AnalysisError, ConfigurationError
from repro.markov.ctmc import FiniteCTMC

#: A chain state: (queued, ((bus, busy), ...) per port).
MultibusState = Tuple[int, Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class MultibusChain:
    """Parameters of an m-bus, r-resources-per-bus Markov chain."""

    arrival_rate: float
    transmission_rate: float
    service_rate: float
    buses: int
    resources_per_bus: int

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0 or self.transmission_rate <= 0 \
                or self.service_rate <= 0:
            raise ConfigurationError("rates must be positive")
        if self.buses < 1:
            raise ConfigurationError(f"need at least one bus: {self.buses}")
        if self.resources_per_bus < 1:
            raise ConfigurationError(
                f"need at least one resource per bus: {self.resources_per_bus}")
        if self.buses > 4:
            raise ConfigurationError(
                "the exact chain explodes combinatorially; m <= 4 only "
                "(the paper's point — use simulation beyond that)")

    # -- dispatch discipline -------------------------------------------------
    def dispatch_port(self, ports: Tuple[Tuple[int, int], ...]) -> Optional[int]:
        """Lowest-indexed port that can accept a task (priority policy)."""
        for index, (bus, busy) in enumerate(ports):
            if bus == 0 and busy < self.resources_per_bus:
                return index
        return None

    @staticmethod
    def level(state: MultibusState) -> int:
        """Tasks anywhere in the subsystem."""
        queued, ports = state
        return queued + sum(bus + busy for bus, busy in ports)

    def initial_state(self) -> MultibusState:
        return (0, tuple((0, 0) for _ in range(self.buses)))

    # -- transitions ------------------------------------------------------------
    def transitions(self, state: MultibusState
                    ) -> Iterator[Tuple[MultibusState, float]]:
        yield from self.arrival_transitions(state)
        yield from self.completion_transitions(state)

    def arrival_transitions(self, state: MultibusState
                            ) -> Iterator[Tuple[MultibusState, float]]:
        """The arrival transition — the ``lambda * B`` part of the
        generator split ``Q(lambda) = A + lambda * B`` (a chain with
        ``arrival_rate=1`` yields the unit coefficients)."""
        queued, ports = state
        # Arrival: dispatch immediately if some port can accept, else queue.
        target = self.dispatch_port(ports)
        if target is None:
            yield (queued + 1, ports), self.arrival_rate
        else:
            yield (queued, self._set(ports, target, bus=1)), self.arrival_rate

    def completion_transitions(self, state: MultibusState
                               ) -> Iterator[Tuple[MultibusState, float]]:
        """Completions — the rate-independent ``A`` part of the split."""
        queued, ports = state
        # Transmission completions.
        for index, (bus, busy) in enumerate(ports):
            if bus != 1:
                continue
            after = self._set(ports, index, bus=0, busy=busy + 1)
            after_queued = queued
            redispatch = self.dispatch_port(after)
            if after_queued > 0 and redispatch is not None:
                after = self._set(after, redispatch, bus=1)
                after_queued -= 1
            yield (after_queued, after), self.transmission_rate
        # Service completions.
        for index, (bus, busy) in enumerate(ports):
            if busy == 0:
                continue
            after = self._set(ports, index, busy=busy - 1)
            after_queued = queued
            redispatch = self.dispatch_port(after)
            if after_queued > 0 and redispatch is not None:
                after = self._set(after, redispatch, bus=1)
                after_queued -= 1
            yield (after_queued, after), busy * self.service_rate

    @staticmethod
    def _set(ports: Tuple[Tuple[int, int], ...], index: int,
             bus: Optional[int] = None,
             busy: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
        updated = list(ports)
        old_bus, old_busy = updated[index]
        updated[index] = (bus if bus is not None else old_bus,
                          busy if busy is not None else old_busy)
        return tuple(updated)


@dataclass(frozen=True)
class MultibusSolution:
    """Stationary results for a small multiple-bus system."""

    chain: MultibusChain
    mean_queue_length: float
    mean_delay: float
    mean_busy_buses: float
    mean_busy_resources: float
    levels_used: int

    @property
    def normalized_delay(self) -> float:
        """Delay in units of the mean service time."""
        return self.mean_delay * self.chain.service_rate

    @property
    def bus_utilization(self) -> float:
        """Mean fraction of buses transmitting."""
        return self.mean_busy_buses / self.chain.buses

    @property
    def resource_utilization(self) -> float:
        """Mean fraction of resources busy."""
        total = self.chain.buses * self.chain.resources_per_bus
        return self.mean_busy_resources / total


def solve_multibus(arrival_rate: float, transmission_rate: float,
                   service_rate: float, buses: int, resources_per_bus: int,
                   max_level: Optional[int] = None,
                   tolerance: float = 1e-9,
                   hard_limit: int = 4000) -> MultibusSolution:
    """Solve the small-m chain by growing level truncation.

    ``arrival_rate`` is the aggregate rate (``p * lambda``).  The
    truncation doubles until the mean delay moves by less than
    ``tolerance`` (relative).
    """
    chain = MultibusChain(arrival_rate=arrival_rate,
                          transmission_rate=transmission_rate,
                          service_rate=service_rate, buses=buses,
                          resources_per_bus=resources_per_bus)
    if max_level is not None:
        return _solve_at(chain, max_level)
    level = max(8 * buses * resources_per_bus, 32)
    previous: Optional[MultibusSolution] = None
    while level <= hard_limit:
        current = _solve_at(chain, level)
        if previous is not None:
            reference = max(abs(previous.mean_delay), 1e-30)
            if abs(current.mean_delay - previous.mean_delay) \
                    <= tolerance * reference:
                return current
        previous = current
        level *= 2
    raise AnalysisError(
        f"multibus chain did not converge below level {hard_limit}; "
        "the system is too close to saturation")


def _solve_at(chain: MultibusChain, max_level: int) -> MultibusSolution:
    ctmc = FiniteCTMC(
        chain.transitions,
        initial_states=[chain.initial_state()],
        state_filter=lambda state: chain.level(state) <= max_level,
    )
    distribution = ctmc.stationary_distribution()
    mean_queue = ctmc.expected_value(lambda s: float(s[0]), distribution)
    mean_buses = ctmc.expected_value(
        lambda s: float(sum(bus for bus, _busy in s[1])), distribution)
    mean_busy = ctmc.expected_value(
        lambda s: float(sum(busy for _bus, busy in s[1])), distribution)
    return MultibusSolution(
        chain=chain,
        mean_queue_length=mean_queue,
        mean_delay=mean_queue / chain.arrival_rate,
        mean_busy_buses=mean_buses,
        mean_busy_resources=mean_busy,
        levels_used=max_level,
    )
