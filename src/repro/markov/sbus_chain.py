"""The exact Markov chain of the single shared bus (Section III, Fig. 3).

State ``(queued, transmitting, busy)`` — the paper's ``N^l_{n,s}``:

* ``queued``       l : tasks waiting at the processors (FIFO),
* ``transmitting`` n : 0 or 1 tasks occupying the bus,
* ``busy``         s : resources currently serving tasks (0..r).

Feasibility rules (boundary behaviour of Fig. 3):

* a task can only transmit if a resource is free to receive it, so
  ``n == 1`` requires ``s <= r - 1``;
* a task only waits when it cannot transmit, so ``queued >= 1`` requires the
  bus busy (``n == 1``) or every resource busy (``s == r``).

Transitions (aggregate arrival rate ``Lambda = p * lambda``):

* arrival (rate Lambda): starts transmitting immediately when the bus and a
  resource are free, else joins the queue;
* transmission completion (rate mu_n): the receiving resource begins
  service; the head-of-queue task grabs the bus if another resource is
  free, otherwise the bus idles (the paper's ``N^l_{1,r-1} -> N^l_{0,r}``);
* service completion (rate s * mu_s): frees a resource; if tasks were
  queued behind a fully-busy resource pool, the head task starts
  transmitting (``N^l_{0,r} -> N^{l-1}_{1,r-1}``).

Grouping states by the *level* ``k = queued + transmitting + busy`` (the
number of tasks anywhere in the subsystem — the 45-degree stages of Fig. 3)
turns the chain into a QBD whose blocks repeat from level ``r + 1`` on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: A chain state: (queued, transmitting, busy).
SbusState = Tuple[int, int, int]


@dataclass(frozen=True)
class SbusChain:
    """Parameters of a single-shared-bus Markov chain.

    ``arrival_rate`` is the aggregate rate onto the bus (``p * lambda``).
    """

    arrival_rate: float
    transmission_rate: float
    service_rate: float
    resources: int

    def __post_init__(self) -> None:
        for name, rate in (("arrival", self.arrival_rate),
                           ("transmission", self.transmission_rate),
                           ("service", self.service_rate)):
            if not 0 < rate < math.inf:
                raise ConfigurationError(
                    f"{name} rate must be finite and positive: {rate}")
        if not isinstance(self.resources, int) or self.resources < 1:
            raise ConfigurationError(
                f"resource count must be a positive integer: {self.resources!r}")

    # -- state-space structure --------------------------------------------
    def is_feasible(self, state: SbusState) -> bool:
        """Whether ``state`` satisfies the boundary rules above."""
        queued, transmitting, busy = state
        if queued < 0 or transmitting not in (0, 1) or not 0 <= busy <= self.resources:
            return False
        if transmitting == 1 and busy > self.resources - 1:
            return False
        if queued >= 1 and transmitting == 0 and busy != self.resources:
            return False
        return True

    @staticmethod
    def level(state: SbusState) -> int:
        """Tasks in the subsystem: queued + transmitting + busy."""
        queued, transmitting, busy = state
        return queued + transmitting + busy

    def states_at_level(self, level: int) -> List[SbusState]:
        """All feasible states with the given task count, canonically ordered.

        Order: ``(n=1, s=0), (n=1, s=1), ..., (n=1, s=r-1), (n=0, s=level)``
        — transmitting states by busy count, then the idle-bus state (which
        is ``(0, 0, level)`` for small levels and ``(l, 0, r)`` beyond).
        """
        if level < 0:
            return []
        states: List[SbusState] = []
        for busy in range(min(level, self.resources)):
            queued = level - 1 - busy
            candidate = (queued, 1, busy)
            if queued >= 0 and self.is_feasible(candidate):
                states.append(candidate)
        if level <= self.resources:
            idle = (0, 0, level)
        else:
            idle = (level - self.resources, 0, self.resources)
        if self.is_feasible(idle):
            states.append(idle)
        return states

    @property
    def repeating_level(self) -> int:
        """First level from which the QBD blocks repeat (``r + 1``)."""
        return self.resources + 1

    # -- transition structure ----------------------------------------------
    def transitions(self, state: SbusState) -> Iterator[Tuple[SbusState, float]]:
        """Outgoing ``(target, rate)`` pairs of ``state``."""
        yield from self.arrival_transitions(state)
        yield from self.completion_transitions(state)

    def arrival_transitions(self, state: SbusState
                            ) -> Iterator[Tuple[SbusState, float]]:
        """The arrival transition of ``state`` (rate proportional to Lambda).

        Exactly the entries of the generator scaled by the arrival rate —
        the ``lambda * B`` part of the split ``Q(lambda) = A + lambda * B``
        (the rate yielded here is ``arrival_rate`` times the unit
        coefficient, so a chain built with ``arrival_rate=1`` yields the
        coefficients themselves).
        """
        queued, transmitting, busy = state
        r = self.resources
        if transmitting == 0 and queued == 0 and busy < r:
            yield (0, 1, busy), self.arrival_rate
        elif transmitting == 0:  # bus idle because all resources busy
            yield (queued + 1, 0, r), self.arrival_rate
        else:
            yield (queued + 1, 1, busy), self.arrival_rate

    def completion_transitions(self, state: SbusState
                               ) -> Iterator[Tuple[SbusState, float]]:
        """Transmission/service completions — the ``A`` part of the split."""
        queued, transmitting, busy = state
        r = self.resources
        # Transmission completion.
        if transmitting == 1:
            if queued >= 1 and busy + 1 <= r - 1:
                yield (queued - 1, 1, busy + 1), self.transmission_rate
            elif queued >= 1:  # busy + 1 == r: queue stalls behind full pool
                yield (queued, 0, r), self.transmission_rate
            else:
                yield (0, 0, busy + 1), self.transmission_rate
        # Service completion.
        if busy >= 1:
            if transmitting == 0 and busy == r and queued >= 1:
                yield (queued - 1, 1, r - 1), busy * self.service_rate
            else:
                yield (queued, transmitting, busy - 1), busy * self.service_rate

    def arrival_predecessor(self, state: SbusState) -> SbusState:
        """The unique state from which an arrival leads to ``state``.

        Raises :class:`ValueError` for states with no arrival predecessor
        (only ``(0, 0, s)``, which are entered by completions, not arrivals).
        """
        queued, transmitting, busy = state
        if transmitting == 1 and queued == 0:
            predecessor = (0, 0, busy)
        elif transmitting == 1:
            predecessor = (queued - 1, 1, busy)
        elif queued >= 1:  # (l, 0, r)
            predecessor = (queued - 1, 0, busy)
        else:
            raise ValueError(f"state {state!r} has no arrival predecessor")
        if not self.is_feasible(predecessor):
            raise ValueError(f"state {state!r} has no feasible arrival predecessor")
        return predecessor

    # -- QBD blocks ---------------------------------------------------------
    def qbd_blocks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The repeating blocks ``(A0, A1, A2)`` for levels ``>= r + 1``.

        Phase order matches :meth:`states_at_level` in the repeating region:
        phases ``0..r-1`` are transmitting with that many resources busy;
        phase ``r`` is the idle-bus, all-resources-busy state.
        """
        r = self.resources
        size = r + 1
        a0 = self.arrival_rate * np.eye(size)
        a1 = np.zeros((size, size))
        a2 = np.zeros((size, size))
        for busy in range(r):  # transmitting phases
            if busy + 1 <= r - 1:
                a1[busy, busy + 1] += self.transmission_rate
            else:
                a1[busy, r] += self.transmission_rate
            if busy >= 1:
                a2[busy, busy - 1] += busy * self.service_rate
        a2[r, r - 1] += r * self.service_rate  # idle bus, service frees a resource
        for phase in range(size):
            outflow = a0[phase].sum() + a1[phase].sum() + a2[phase].sum()
            a1[phase, phase] -= outflow
        return a0, a1, a2

    # -- per-state quantities -------------------------------------------------
    @staticmethod
    def queued_tasks(state: SbusState) -> int:
        """The queue length l counted by the paper's eq. (1)."""
        return state[0]

    @staticmethod
    def bus_busy(state: SbusState) -> bool:
        """Whether the bus is transmitting in ``state``."""
        return state[1] == 1

    @staticmethod
    def busy_resources(state: SbusState) -> int:
        """Number of resources serving tasks in ``state``."""
        return state[2]
