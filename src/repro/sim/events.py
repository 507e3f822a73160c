"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-scheduling world view with an optional
process layer on top (:mod:`repro.sim.process`).  An :class:`Event` is a
one-shot occurrence: it is *triggered* when given a value (or an exception),
scheduled into the environment's queue, and *processed* when the environment
pops it and runs its callbacks.

The design is intentionally close to SimPy's so that readers familiar with
that library can follow the simulation code, but it is implemented from
scratch because no simulation package is available in this environment.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

#: Events scheduled at the same time are ordered by priority, then FIFO.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2


class Event:
    """A one-shot simulation event.

    An event goes through three states:

    1. *pending* — created, nobody has triggered it;
    2. *triggered* — a value or exception has been attached and the event is
       scheduled in the environment queue;
    3. *processed* — the environment has popped the event and invoked its
       callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_triggered", "_processed")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value/exception has been attached."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event carries a value rather than an exception."""
        if not self._triggered:
            raise SimulationError("event value inspected before it was triggered")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The value the event was triggered with (raises if it failed)."""
        if not self._triggered:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._value = value
        self._triggered = True
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside any process waiting on the event.
        """
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self._triggered = True
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    # -- internal --------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            # One registered callback is by far the common case (a process
            # waiting on its own timeout); dispatch it without the loop.
            if len(callbacks) == 1:
                callbacks[0](self)
            else:
                for callback in callbacks:
                    callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (this keeps "wait on maybe-already-done" call sites
        simple).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers itself ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,  # noqa: F821
                 priority: int = PRIORITY_NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Timeouts are the kernel's unit of work and are constructed once per
        # simulated transmission/service/arrival; Event.__init__ is flattened
        # here (it would write _value and _triggered twice and cost an extra
        # frame on a path executed millions of times per sweep).
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        # Inlined Environment.schedule (delay is already known non-negative);
        # the cold livelock-guard path delegates back for the full message.
        queue = env._queue
        limit = env.max_queue_length
        if limit is not None and len(queue) >= limit:
            env.schedule(self, delay=delay, priority=priority)
            return
        sequence = env._sequence
        env._sequence = sequence + 1
        heappush(queue, (env._now + delay, priority, sequence, self))


class Condition(Event):
    """Composite event that triggers when ``evaluate`` says enough children fired.

    Used through the :func:`any_of` / :func:`all_of` helpers.  The condition
    value is a dict mapping each fired child event to its value.
    """

    __slots__ = ("_events", "_fired", "_needed")

    def __init__(self, env: "Environment", events, needed: int):  # noqa: F821
        super().__init__(env)
        self._events = list(events)
        self._fired: List[Event] = []
        self._needed = needed
        if not self._events:
            self.succeed({})
            return
        if needed > len(self._events):
            raise SimulationError(
                f"condition needs {needed} events but only {len(self._events)} given"
            )
        for event in self._events:
            event.add_callback(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # propagate child failure
            return
        # Track processed children explicitly: a Timeout is "triggered" from
        # birth, so the triggered flag cannot distinguish fired from pending.
        self._fired.append(event)
        if len(self._fired) >= self._needed:
            self.succeed({child: child._value for child in self._fired})


def any_of(env: "Environment", events) -> Condition:  # noqa: F821
    """Condition that fires as soon as one of ``events`` fires."""
    return Condition(env, events, needed=1)


def all_of(env: "Environment", events) -> Condition:  # noqa: F821
    """Condition that fires once all ``events`` have fired."""
    events = list(events)
    return Condition(env, events, needed=len(events))
