"""Abstract interface between the system simulator and a network fabric.

The RSIN system simulator (:mod:`repro.core`) owns the *endpoint* state —
which output-port buses are transmitting and which resources are busy.  The
fabric owns the *internal* state: links and switch settings.  The contract:

* :meth:`NetworkFabric.connect` — given a requesting input and the set of
  output ports that could accept a task right now (bus free, at least one
  free resource), find a circuit to one of them without disturbing existing
  circuits.  On success the links are claimed and a :class:`Connection`
  handle is returned; on failure (internal blocking) ``None``.
* :meth:`NetworkFabric.release` — drop the circuit when transmission ends.

Buses and crossbars never block internally; multistage networks can.  The
distributed-scheduling behaviour (which of several eligible ports is chosen)
lives in the fabric, reproducing each network's hardware algorithm.

Fault injection extends the contract: a fabric exposes its internal
components (:meth:`NetworkFabric.fault_components` — crossbar cells,
interchange boxes; a bus fabric has none, its single bus being endpoint
state) and the injector marks them down and up through
:meth:`fail_component` / :meth:`repair_component`.  Failing a component
severs every active circuit through it — the severed connections are
returned so the system simulator can unwind the transmissions — and a
failed component is invisible to :meth:`connect` until repaired, which on
multistage fabrics makes requests reroute/backtrack around dead boxes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import FrozenSet, Optional, Set, Tuple

from repro.errors import ConfigurationError, FaultInjectionError, SchedulingError


@dataclass(frozen=True)
class Connection:
    """An established circuit from an input to an output port.

    ``links`` identifies the internal links held by the circuit (empty for
    non-blocking fabrics); ``hops`` counts switching elements traversed —
    the paper's "number of interchange boxes" metric.
    """

    input_port: int
    output_port: int
    links: FrozenSet[Tuple[int, int]] = frozenset()
    hops: int = 0


class NetworkFabric(ABC):
    """Base class for all RSIN fabrics."""

    def __init__(self, inputs: int, outputs: int):
        if inputs < 1 or outputs < 1:
            raise ConfigurationError(
                f"fabric needs positive port counts, got {inputs}x{outputs}")
        self.inputs = inputs
        self.outputs = outputs
        self._active: Set[Connection] = set()
        self._failed: Set[Tuple] = set()
        self.connect_attempts = 0
        self.connect_blocked = 0

    @property
    def active_connections(self) -> FrozenSet[Connection]:
        """Circuits currently held."""
        return frozenset(self._active)

    def connect(self, input_port: int, candidate_ports) -> Optional[Connection]:
        """Try to establish a circuit from ``input_port`` to a candidate port."""
        if not 0 <= input_port < self.inputs:
            raise SchedulingError(f"input port {input_port} out of range")
        candidates = frozenset(candidate_ports)
        for port in candidates:
            if not 0 <= port < self.outputs:
                raise SchedulingError(f"output port {port} out of range")
        if any(conn.input_port == input_port for conn in self._active):
            raise SchedulingError(
                f"input {input_port} already holds a connection")
        self.connect_attempts += 1
        connection = self._find_circuit(input_port, candidates)
        if connection is None:
            self.connect_blocked += 1
            return None
        self._active.add(connection)
        return connection

    def release(self, connection: Connection) -> None:
        """Tear down a circuit previously returned by :meth:`connect`."""
        if connection not in self._active:
            raise SchedulingError("releasing a connection that is not active")
        self._active.remove(connection)
        self._after_release(connection)

    # -- fault injection -------------------------------------------------------
    def fault_components(self) -> Tuple[Tuple, ...]:
        """The internal components a fault can target (empty for buses)."""
        return ()

    def fail_component(self, component: Tuple) -> FrozenSet[Connection]:
        """Mark ``component`` down; sever and return circuits through it.

        The severed circuits are torn down inside the fabric (links freed)
        before this returns — the caller owns unwinding the endpoint state
        (bus, transmitting task) of each returned connection and must not
        call :meth:`release` on them again.
        """
        self._check_component(component)
        if component in self._failed:
            raise FaultInjectionError(
                f"component {component!r} is already down")
        self._failed.add(component)
        severed = frozenset(conn for conn in self._active
                            if self._connection_uses(conn, component))
        for connection in severed:
            self._active.remove(connection)
            self._after_release(connection)
        return severed

    def repair_component(self, component: Tuple) -> None:
        """Mark ``component`` up again."""
        self._check_component(component)
        if component not in self._failed:
            raise FaultInjectionError(
                f"component {component!r} is not down")
        self._failed.discard(component)

    def _check_component(self, component: Tuple) -> None:
        if component not in self.fault_components():
            raise FaultInjectionError(
                f"{type(self).__name__} has no component {component!r}")

    def _connection_uses(self, connection: Connection, component: Tuple) -> bool:
        """Whether ``connection``'s circuit passes through ``component``."""
        return False

    # -- hooks ----------------------------------------------------------------
    @abstractmethod
    def _find_circuit(self, input_port: int, candidates) -> Optional[Connection]:
        """Locate and claim a circuit, or return None on internal blocking."""

    def _after_release(self, connection: Connection) -> None:
        """Fabrics with internal state free it here."""

    # -- statistics ------------------------------------------------------------
    @property
    def blocking_fraction(self) -> float:
        """Fraction of connect attempts refused due to internal blocking."""
        if self.connect_attempts == 0:
            return 0.0
        return self.connect_blocked / self.connect_attempts


class SingleBusFabric(NetworkFabric):
    """The single shared bus: one output port, no internal links.

    All contention is at the bus itself, which the system simulator models
    as the output-port bus; the fabric therefore never blocks internally
    (an eligible candidate port implies a free bus).  It also has no
    internal fault components: the bus's own failures are endpoint (port)
    faults owned by the system simulator.
    """

    def __init__(self, inputs: int):
        super().__init__(inputs=inputs, outputs=1)

    def _find_circuit(self, input_port: int, candidates) -> Optional[Connection]:
        if 0 not in candidates:
            return None
        return Connection(input_port=input_port, output_port=0, hops=0)
