"""Batched multistage routing: many rows' settled fabrics as one link plane.

The scalar :class:`~repro.networks.omega.MultistageFabric` answers one
connect attempt with two Python walks over the network — a backward
availability labelling (from which links is some candidate port reachable
without disturbing existing circuits?) and a forward claim walk that
prefers the upper box output, as the interchange-box hardware does.  This
module holds the same state for many independent rows side by side and
answers the attempt for all of them with a handful of vectorized gathers
per stage:

* each row is one ``P``-link network: its ``G`` partitions of ``s``
  links each sit side by side, partition ``g``'s link ``l`` at
  ``g * s + l``, so a wiring is one pair of gather vectors per stage —
  the column-``t + 1`` links behind each column-``t`` link's box, upper
  and lower output;
* rows may differ in wiring (network type, partition count): each row
  names one of the router's wirings, and a wiring with fewer stages than
  the deepest is padded with pass-through stages (upper = lower =
  identity), which a circuit crosses on the link it arrived on;
* link occupancy is one ``(stages + 1, rows, P)`` boolean plane (column
  ``t`` holds the links entering stage ``t``; column ``stages`` is the
  output side).  It is all the box state there is: every box input port
  is fed by exactly one link of its column and every output port feeds
  exactly one link of the next column, so "input engaged" is "its link
  is busy" and "output taken" is "the next column's link is busy" — the
  scalar fabric's ``_box_usage`` read off the plane (a fully used box has
  both outputs busy, so the ``len(usage) == 2`` refusal is implied);
* established circuits remember one path bit per (input, stage) —
  whether the circuit left that stage by the lower output — so a release
  replays the forward walk arithmetically instead of storing link sets;
* requests and candidate ports arrive as the engine's words (bit ``l``
  is link ``l``; the networks are square, so output link ``l`` is port
  ``l``), and grants leave as global input and output links.

The labelling is ``avail_t = free_t & (avail_{t+1}[up_t] |
avail_{t+1}[lo_t])``, with ``avail_stages`` the free, acceptable output
links.  The wirings come from ``input_map`` / ``output_link``, so the
router is topology-generic: Omega, cube and baseline wirings, and
partitionings of them, batch through the same kernels and share one
router.

**Equivalence.**  Between task events the scalar fabric's status has
settled, so a connect attempt is a pure function of (occupancy,
candidates) — there is no tick-level racing to reproduce, unlike
:class:`~repro.networks.omega.ClockedMultistageScheduler` (which backs
the Fig. 11 hop-count studies, not the queueing figures, and stays
scalar).  The lockstep engine calls :meth:`route_broadcast` once per
lockstep step with every offering row's request and status words,
masked to the partition that row re-offers, and the router grants in
the scalar broadcast's ascending input order, so grant order, blocking,
and the resulting event streams match the scalar engine row for row.
Randomized lockstep tests pin it against one ``MultistageFabric`` per
(row, partition) through long broadcast/release interleavings on rows of
mixed wirings.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.errors import ConfigurationError, SchedulingError
from repro.networks.batched_crossbar import WORD_BITS
from repro.networks.interchange import LOWER, UPPER
from repro.networks.topology import MultistageTopology

_IntArray = NDArray[np.int64]
_BoolArray = NDArray[np.bool_]
_Words = NDArray[np.uint64]

_ONE = np.uint64(1)


class BatchedMultistageRouter:
    """Settled multistage fabrics, one ``P``-link network per row.

    ``wirings`` gives each row its ``(topology, partitions)``: the row
    holds ``partitions`` independent copies of ``topology`` side by side.
    Every row must have the same link count ``P = partitions *
    topology.size``.  All state starts empty, matching freshly built
    fabrics.
    """

    def __init__(self,
                 wirings: Sequence[Tuple[MultistageTopology, int]]):
        if not wirings:
            raise ConfigurationError("router needs at least one row")
        index: Dict[Tuple[str, int, int], int] = {}
        distinct: List[Tuple[MultistageTopology, int]] = []
        row_wiring: List[int] = []
        for topology, partitions in wirings:
            key = (type(topology).__name__, topology.size, int(partitions))
            if key not in index:
                index[key] = len(distinct)
                distinct.append((topology, int(partitions)))
            row_wiring.append(index[key])
        links = {topology.size * partitions for topology, partitions
                 in distinct}
        if len(links) != 1:
            raise ConfigurationError(
                f"router rows must share one link count, got {sorted(links)}")
        self._links = links.pop()
        if self._links > WORD_BITS:
            raise ConfigurationError(
                f"router rows have {self._links} links; a request or "
                f"status word holds {WORD_BITS}")
        stages = max(topology.stages for topology, _ in distinct)
        self._stages = stages
        # Per wiring and stage, the next-column link behind each link's
        # box, upper and lower output; pass-through padding past a
        # wiring's own stages.
        self._up: _IntArray = np.tile(np.arange(self._links, dtype=np.int64),
                                      (len(distinct), stages, 1))
        self._lo: _IntArray = self._up.copy()
        for number, (topology, partitions) in enumerate(distinct):
            size = topology.size
            offsets = np.arange(partitions, dtype=np.int64)[:, None] * size
            for stage in range(topology.stages):
                boxes = [topology.input_map(stage, link)[0]
                         for link in range(size)]
                for table, port in ((self._up, UPPER), (self._lo, LOWER)):
                    local = np.array([topology.output_link(stage, box, port)
                                      for box in boxes], dtype=np.int64)
                    table[number, stage] = (offsets + local).ravel()
        #: Each row's wiring.
        self._wiring: _IntArray = np.asarray(row_wiring, dtype=np.int64)
        #: Bit ``l`` of a request or status word is link ``l``.
        self._shifts: _Words = np.arange(self._links, dtype=np.uint64)
        rows = len(row_wiring)
        self._busy: _BoolArray = np.zeros((stages + 1, rows, self._links),
                                          dtype=bool)
        #: Per (row, input link, stage): the circuit took the lower output.
        self._lower: _BoolArray = np.zeros((rows, self._links, stages),
                                           dtype=bool)

    def _availability(self, reps: _IntArray,
                      acceptable: _BoolArray) -> _BoolArray:
        """Backward availability labelling for every row at once.

        Returns a ``(stages + 1, len(reps), P)`` plane: link ``l`` of
        column ``t`` is available iff it is free and the upper or lower
        output of its box leads to an available next-column link; column
        ``stages`` holds the acceptable, free output links.
        ``avail[0, i, q]`` is therefore "a conflict-free circuit exists
        from input ``q`` of row ``reps[i]``" — exactly the scalar
        fabric's labelling, row by row.
        """
        stages, links = self._stages, self._links
        count = reps.shape[0]
        busy = self._busy[:, reps]
        wiring = self._wiring[reps]
        # Gathers index the flattened next column: row i's links start
        # at i * P.
        base = (np.arange(count, dtype=np.int64) * links)[:, None]
        up = self._up[wiring]
        lo = self._lo[wiring]
        avail = np.empty((stages + 1, count, links), dtype=bool)
        np.logical_and(acceptable, ~busy[stages], out=avail[stages])
        for stage in range(stages - 1, -1, -1):
            onward = avail[stage + 1].ravel()
            reach = (onward[up[:, stage] + base]
                     | onward[lo[:, stage] + base])
            np.logical_and(reach, ~busy[stage], out=avail[stage])
        return avail

    def _claim(self, reps: _IntArray, inputs: _IntArray, avail: _BoolArray,
               positions: _IntArray) -> _IntArray:
        """Forward claim walk from ``inputs`` (global links) of ``reps``.

        ``avail[:, positions]`` is the labelling of those rows.  Prefers
        the upper output as the box hardware does; the labels guarantee
        one branch works at every stage.  Returns the output link each
        circuit reached.
        """
        stages = self._stages
        wiring = self._wiring[reps]
        path = np.empty((stages + 1, reps.shape[0]), dtype=np.int64)
        lower = np.empty((reps.shape[0], stages), dtype=bool)
        link = path[0] = inputs
        for stage in range(stages):
            up = self._up[wiring, stage, link]
            lo = self._lo[wiring, stage, link]
            take_up = avail[stage + 1, positions, up]
            if not take_up.all():
                down = ~take_up
                if not avail[stage + 1, positions[down], lo[down]].all():
                    raise SchedulingError(
                        "availability labelling inconsistent (router bug)")
            lower[:, stage] = ~take_up
            link = path[stage + 1] = np.where(take_up, up, lo)
        self._busy[np.arange(stages + 1)[:, None], reps, path] = True
        self._lower[reps, inputs] = lower
        return link

    def route_broadcast(self, reps: _IntArray, requests: _Words,
                        status: _Words
                        ) -> Iterator[Tuple[_IntArray, _IntArray,
                                            _IntArray]]:
        """Route one status broadcast per row, all rows and inputs at once.

        Row ``i`` broadcasts in batch row ``reps[i]``; the rows must be
        distinct.  Bit ``l`` of ``requests[i]`` marks a waiting input
        link, bit ``l`` of ``status[i]`` an acceptable output port (bus
        free with a free resource), both masked to the broadcasting
        partition.  Yields ``(positions, inputs, outputs)`` grant waves —
        ``positions`` indexes into ``reps``, inputs and outputs are global
        links — claiming the circuits as it goes; the caller applies its
        own per-grant bookkeeping between waves.

        Equivalence with the scalar engine's ascending retry loop rests
        on monotonicity: during a broadcast grants only *add* occupancy
        (links, buses, resources), so an attempt that fails under the
        current labelling fails under every later one.  Each wave can
        therefore grant every row's lowest still-viable waiting input in
        one vectorized pass — the same grants, in the same per-row order,
        as attempting the inputs one by one — and drop the inputs the
        labelling refused without ever retrying them.  A granted output
        port leaves the row's acceptable set (its bus went busy),
        matching the engine's own bookkeeping.  Only rows that still have
        a waiting input and an acceptable port are labelled again.
        """
        shifts = self._shifts
        pending = ((requests[:, None] >> shifts) & _ONE).astype(bool)
        acceptable = ((status[:, None] >> shifts) & _ONE).astype(bool)
        positions = np.arange(reps.shape[0], dtype=np.int64)
        while True:
            positions = positions[pending[positions].any(axis=1)
                                  & acceptable[positions].any(axis=1)]
            if positions.shape[0] == 0:
                return
            avail = self._availability(reps[positions], acceptable[positions])
            viable = pending[positions] & avail[0]
            pending[positions] = viable
            granted = viable.any(axis=1)
            if not granted.any():
                return
            labelled = np.nonzero(granted)[0]
            positions = positions[labelled]
            inputs = viable[labelled].argmax(axis=1).astype(np.int64)
            outputs = self._claim(reps[positions], inputs, avail, labelled)
            pending[positions, inputs] = False
            acceptable[positions, outputs] = False
            yield positions, inputs, outputs

    def release_batch(self, reps: _IntArray, inputs: _IntArray) -> None:
        """Tear down the circuits held from input link ``inputs[i]`` of
        batch row ``reps[i]``.

        Rows must be distinct and must each hold a circuit from that
        (global) input link; the stored path bits replay it.
        """
        if not self._busy[0, reps, inputs].all():
            raise SchedulingError("released circuit missing from the link "
                                  "plane (router bug)")
        stages = self._stages
        wiring = self._wiring[reps]
        lower = self._lower[reps, inputs]
        path = np.empty((stages + 1, reps.shape[0]), dtype=np.int64)
        link = path[0] = inputs
        for stage in range(stages):
            link = path[stage + 1] = np.where(
                lower[:, stage], self._lo[wiring, stage, link],
                self._up[wiring, stage, link])
        self._busy[np.arange(stages + 1)[:, None], reps, path] = False
        self._lower[reps, inputs] = False
