"""The simulation environment: clock, event queue, and run loop.

Models drive it with three calls: ``timeout(delay)`` to schedule an event
(``add_callback`` on it says what happens then), ``run(until=...)`` to
advance the clock, and ``now`` to read it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_NORMAL, Event, Timeout

#: Default bound on the pending-event queue (see ``max_queue_length``).
DEFAULT_MAX_QUEUE_LENGTH = 1_000_000


class Environment:
    """Discrete-event simulation environment.

    Keeps the simulation clock (:attr:`now`) and a time-ordered event
    queue.  Deterministic given the same sequence of schedule calls: ties
    in time are broken by priority and then by insertion order (a
    monotonic sequence number).

    ``max_queue_length`` bounds the number of simultaneously pending events:
    a model that schedules without ever draining — the classic livelock shape
    of a pathological fault schedule endlessly severing and retrying — fails
    fast with a :class:`SimulationError` instead of consuming the machine.
    Pass ``None`` to disable the guard.
    """

    __slots__ = ("_now", "_queue", "_sequence", "max_queue_length")

    def __init__(self, initial_time: float = 0.0,
                 max_queue_length: Optional[int] = DEFAULT_MAX_QUEUE_LENGTH
                 ) -> None:
        if max_queue_length is not None and max_queue_length < 1:
            raise SimulationError(
                f"max_queue_length must be positive or None, got {max_queue_length}")
        self._now = float(initial_time)
        # Heap slots are plain (time, priority, sequence, event) tuples.  The
        # sequence is a monotonic counter assigned at schedule time, so
        # events sharing a time and a priority pop in FIFO order and the
        # comparison never reaches the (unorderable) Event objects; tuple
        # literals keep the schedule hot path cheap.
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0
        self.max_queue_length = max_queue_length

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def timeout(self, delay: float,
                priority: int = PRIORITY_NORMAL) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, priority)

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Insert ``event`` into the queue ``delay`` units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        queue = self._queue
        limit = self.max_queue_length
        if limit is not None and len(queue) >= limit:
            raise SimulationError(
                f"event queue exceeded max_queue_length={limit} "
                f"at t={self._now}: the model is scheduling events faster than "
                "it drains them (livelock guard; raise max_queue_length if the "
                "backlog is intended)")
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(queue, (self._now + delay, priority, sequence, event))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if no event falls on that instant, so statistics that weight by
        time can be finalized consistently.
        """
        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})")
        # Hot path: the heap and the pop are bound to locals and callback
        # dispatch is inlined, so each event costs one tuple pop and one
        # callback call.  schedule() only ever mutates the queue list in
        # place, so the local binding stays valid across callbacks.
        queue = self._queue
        pop = heappop
        while queue:
            if queue[0][0] > horizon:
                break
            time, _priority, _seq, event = pop(queue)
            if time < self._now:
                raise SimulationError(
                    "event queue corrupted: time moved backwards")
            self._now = time
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
        if until is not None:
            self._now = max(self._now, horizon)
