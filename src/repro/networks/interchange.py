"""Interchange boxes and control messages for the clocked multistage model.

Section V implements distributed scheduling in the switching elements.
Each 2x2 interchange box keeps one *resource-availability register* per
output port **and per resource type** (one bit per type suffices for
single-resource requests) and services control signals in the priority
order of Fig. 10:

    release  >  reject  >  query  >  resource-found

* ``S`` (status) — availability bits flowing backward, one stage per tick;
* ``Q`` (query) — a request searching forward for a free resource of its
  type (the type number rides along as the paper's augmented Q signal);
* ``J`` (reject) — a query bounced back by a box with no usable port;
* ``L`` (release) — circuit tear-down;
* ``C`` (found) — confirmation that a resource was captured.

A box never broadcasts (each request wants exactly one resource), so its
two circuits are limited to the *straight* or *exchange* settings: an
existing connection through one input forces the other input to the other
output.

With a single resource type this reduces exactly to the paper's base
algorithm; the per-type registers realize the extension sketched at the
end of Section V ("the number of resource-availability registers ... is
increased so that there is one register for each type").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from repro.errors import SchedulingError

UPPER = 0
LOWER = 1

#: The type used when the system has a single kind of resource.
DEFAULT_TYPE: Hashable = 0


@dataclass
class QueryToken:
    """A request travelling through the network.

    ``trail`` records, for every box currently on the held path, the
    (stage, box, in_port, out_port) hop so rejection can unwind it.
    """

    request_id: int
    source: int
    resource_type: Hashable = DEFAULT_TYPE
    hops: int = 0
    attempts: int = 1
    trail: List[Tuple[int, int, int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class BoxMessage:
    """A control signal addressed to a box for the next tick."""

    kind: str                 # "query" | "reject"
    stage: int
    box: int
    port: int                 # input port (query) or output port tried (reject)
    token: QueryToken


class InterchangeBox:
    """State of one 2x2 interchange box with typed availability registers."""

    def __init__(self, stage: int, index: int, resource_types=(DEFAULT_TYPE,)):
        self.stage = stage
        self.index = index
        self.resource_types = tuple(resource_types)
        #: available[out_port][type]: the A registers, one bit per type.
        self.available: List[Dict[Hashable, bool]] = [
            {rtype: False for rtype in self.resource_types},
            {rtype: False for rtype in self.resource_types},
        ]
        #: Active in_port -> out_port circuits (established or query-held).
        self.circuit: Dict[int, int] = {}

    # -- register access -------------------------------------------------
    def is_available(self, out_port: int, resource_type: Hashable) -> bool:
        """The A register for (out_port, type)."""
        return self.available[out_port].get(resource_type, False)

    def set_available(self, out_port: int, resource_type: Hashable,
                      value: bool) -> None:
        """Write the A register for (out_port, type)."""
        self.available[out_port][resource_type] = value

    def snapshot(self) -> List[Dict[Hashable, bool]]:
        """Copy of both registers (for double-buffered status waves)."""
        return [dict(self.available[UPPER]), dict(self.available[LOWER])]

    # -- setting constraints -------------------------------------------------
    def allowed_outputs(self, in_port: int) -> List[int]:
        """Output ports reachable from ``in_port`` given current circuits.

        With one circuit in place the box setting (straight/exchange) is
        forced; with two it is saturated; with none both outputs are open.
        """
        if in_port in self.circuit:
            raise SchedulingError(
                f"input {in_port} of box ({self.stage}, {self.index}) already used")
        used_outputs = set(self.circuit.values())
        if not self.circuit:
            return [UPPER, LOWER]
        if len(self.circuit) == 2:
            return []
        # One circuit: the free input may only use the free output.
        return [port for port in (UPPER, LOWER) if port not in used_outputs]

    def engage(self, in_port: int, out_port: int) -> None:
        """Latch a circuit through the box."""
        if out_port in self.circuit.values():
            raise SchedulingError(
                f"output {out_port} of box ({self.stage}, {self.index}) already used")
        self.circuit[in_port] = out_port

    def disengage(self, in_port: int) -> None:
        """Drop the circuit entering at ``in_port``."""
        if in_port not in self.circuit:
            raise SchedulingError(
                f"no circuit at input {in_port} of box ({self.stage}, {self.index})")
        del self.circuit[in_port]

    def status_for_input(self, in_port: int, link_free,
                         resource_type: Hashable = DEFAULT_TYPE) -> bool:
        """The S bit this box reports upstream on ``in_port`` for a type.

        True when a query for ``resource_type`` entering there could
        currently be forwarded: some allowed output port has the type's
        availability register set and its outgoing link free.
        ``link_free(out_port)`` is supplied by the network, which owns link
        occupancy.
        """
        if in_port in self.circuit:
            return False
        return any(
            self.is_available(out_port, resource_type) and link_free(out_port)
            for out_port in self.allowed_outputs(in_port)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Box {self.stage},{self.index} avail={self.available} "
                f"circuit={self.circuit}>")
