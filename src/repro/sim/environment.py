"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import (
    PRIORITY_NORMAL,
    Condition,
    Event,
    Timeout,
    all_of,
    any_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.sim.process import Process


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


#: Default bound on the pending-event queue (see ``max_queue_length``).
DEFAULT_MAX_QUEUE_LENGTH = 1_000_000


class Environment:
    """Discrete-event simulation environment.

    Keeps the simulation clock (:attr:`now`), a time-ordered event queue, and
    helpers to create events, timeouts and processes.  Deterministic given
    the same sequence of schedule calls: ties in time are broken by priority
    and then by insertion order (a monotonic sequence number).

    ``max_queue_length`` bounds the number of simultaneously pending events:
    a model that schedules without ever draining — the classic livelock shape
    of a pathological fault schedule endlessly severing and retrying — fails
    fast with a :class:`SimulationError` instead of consuming the machine.
    Pass ``None`` to disable the guard.
    """

    __slots__ = ("_now", "_queue", "_sequence", "_active_process",
                 "max_queue_length")

    def __init__(self, initial_time: float = 0.0,
                 max_queue_length: Optional[int] = DEFAULT_MAX_QUEUE_LENGTH):
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
        self._active_process: Optional["Process"] = None
        self.max_queue_length = max_queue_length

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event creation ---------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = PRIORITY_NORMAL) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value, priority)

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when any of ``events`` fires."""
        return any_of(self, events)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when all of ``events`` have fired."""
        return all_of(self, events)

    def process(self, generator: Generator[Event, Any, Any]) -> "Process":
        """Start a new process from a generator that yields events."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling --------------------------------------------------------
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

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event, advancing the clock to its time."""
        if not self._queue:
            raise EmptySchedule("no more events scheduled")
        time, _priority, _seq, event = heappop(self._queue)
        if time < self._now:
            raise SimulationError("event queue corrupted: time moved backwards")
        self._now = time
        event._run_callbacks()

    # -- run loops ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if no event falls on that instant, so statistics that weight by
        time can be finalized consistently.
        """
        if until is not None:
            until = float(until)
            if until < self._now:
                raise SimulationError(
                    f"run(until={until}) is in the past (now={self._now})"
                )
        # Hot path: the heap, the pop, and the clock are bound to locals
        # so each step costs one tuple pop and one callback dispatch
        # instead of a method call plus repeated attribute lookups.
        # schedule() only ever mutates the queue list in place, so the
        # local binding stays valid across callbacks.
        # Callback dispatch is inlined (the body of
        # Event._run_callbacks) to drop one frame per event; the two
        # must stay in lockstep.
        queue = self._queue
        pop = heappop
        if until is None:
            while queue:
                time, _priority, _seq, event = pop(queue)
                if time < self._now:
                    raise SimulationError(
                        "event queue corrupted: time moved backwards")
                self._now = time
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
        else:
            while queue:
                if queue[0][0] > until:
                    break
                time, _priority, _seq, event = pop(queue)
                if time < self._now:
                    raise SimulationError(
                        "event queue corrupted: time moved backwards")
                self._now = time
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
        if until is not None:
            self._now = max(self._now, until)

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` has been processed; return its value."""
        while not event.processed:
            if not self._queue:
                raise SimulationError("event queue drained before awaited event fired")
            self.step()
        return event.value
