"""The crossbar fabric used by the queueing simulator (Section IV).

A crossbar is internally non-blocking: a request fails only when no output
port is eligible.  What the fabric decides is *which* eligible port a
request connects to: the lowest port index, the wavefront cells'
asymmetric order (see :mod:`repro.networks.cells`).

Fault injection targets individual crosspoint cells: a failed cell
``("cell", (i, j))`` makes output ``j`` unreachable from input ``i``, and
an active circuit through the cell is severed.  Other input/output pairs are
untouched — the crossbar degrades per-crosspoint, not per-port.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.networks.base import Connection, NetworkFabric


class CrossbarFabric(NetworkFabric):
    """A ``p x m`` non-blocking crossbar with distributed scheduling cells."""

    def __init__(self, inputs: int, outputs: int):
        super().__init__(inputs=inputs, outputs=outputs)
        self._components: Tuple[Tuple, ...] = tuple(
            ("cell", (i, j))
            for i in range(inputs) for j in range(outputs))

    # -- fault injection -------------------------------------------------------
    def fault_components(self) -> Tuple[Tuple, ...]:
        return self._components

    def _connection_uses(self, connection: Connection, component: Tuple) -> bool:
        _kind, (i, j) = component
        return connection.input_port == i and connection.output_port == j

    # -- routing ---------------------------------------------------------------
    def _find_circuit(self, input_port: int, candidates) -> Optional[Connection]:
        if self._failed:
            candidates = frozenset(
                port for port in candidates
                if ("cell", (input_port, port)) not in self._failed)
        if not candidates:
            return None
        # Crossbars traverse a single switching element.
        return Connection(input_port=input_port, output_port=min(candidates),
                          hops=1)
