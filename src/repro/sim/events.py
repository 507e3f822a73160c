"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-scheduling world view: a model
schedules callbacks on timeouts, and each callback may schedule further
timeouts.  An :class:`Event` is a one-shot occurrence: it waits in the
environment's queue until the environment pops it and runs its callbacks,
after which it is *processed*.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.sim.environment import Environment

#: Events scheduled at the same time are ordered by priority, then FIFO.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: A callback receives the event that fired.
Callback = Callable[["Event"], None]


class Event:
    """A one-shot simulation event.

    An event is *pending* until the environment pops it from the queue and
    runs its callbacks; from then on it is *processed*, which the kernel
    records by setting :attr:`callbacks` to ``None``.
    """

    __slots__ = ("env", "callbacks")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.callbacks: Optional[List[Callback]] = []

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    def add_callback(self, callback: Callback) -> None:
        """Attach ``callback`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately.
        """
        callbacks = self.callbacks
        if callbacks is None:
            callback(self)
        else:
            callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units in the future."""

    __slots__ = ()

    def __init__(self, env: Environment, delay: float,
                 priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Timeouts are the kernel's unit of work, built once per simulated
        # arrival, transmission and service, so Event.__init__ is flattened
        # here and Environment.schedule inlined (the delay is already known
        # non-negative); the cold livelock-guard path delegates back for the
        # full message.
        self.env = env
        self.callbacks = []
        queue = env._queue
        limit = env.max_queue_length
        if limit is not None and len(queue) >= limit:
            env.schedule(self, delay=delay, priority=priority)
            return
        sequence = env._sequence
        env._sequence = sequence + 1
        heappush(queue, (env._now + delay, priority, sequence, self))
