"""Batched multistage routing: ``K`` settled fabrics as uint8 planes.

The scalar :class:`~repro.networks.omega.MultistageFabric` answers one
connect attempt with two Python walks over the network — a backward
availability labelling (from which links is some candidate port reachable
without disturbing existing circuits?) and a forward claim walk that
prefers the upper box output, as the interchange-box hardware does.  This
module holds the same state for ``K`` independent replications side by
side and answers the attempt for all of them with a handful of vectorized
gathers per stage:

* link occupancy is a ``(K, G, stages + 1, size)`` ``uint8`` plane
  (column ``t`` holds the links entering stage ``t``; column ``stages``
  is the output side), one ``G`` slot per partition;
* box state is two ``(K, G, stages, boxes, 2)`` planes — ``engaged``
  marks input ports holding a circuit, ``taken`` marks output ports
  claimed by one — which together are exactly the scalar fabric's
  ``_box_usage`` dict: an output is allowed from an input iff the input
  is not engaged and the output not taken (a fully used box has both
  planes saturated, so the ``len(usage) == 2`` refusal is implied);
* established circuits remember their per-stage output choice in a
  ``(K, G, size, stages)`` ``int8`` plane keyed by input port, so a
  release replays the forward walk arithmetically instead of storing
  link sets.

The wiring itself (``input_map`` / ``output_link``) is precomputed into
per-stage index vectors, so the router is topology-generic — Omega, cube,
and baseline wirings all batch through the same kernels.

**Equivalence.**  Between task events the scalar fabric's status has
settled, so a connect attempt is a pure function of (occupancy, box
usage, candidates) — there is no tick-level racing to reproduce, unlike
:class:`~repro.networks.omega.ClockedMultistageScheduler` (which backs
the Fig. 11 hop-count studies, not the queueing figures, and stays
scalar).  The lockstep engine calls :meth:`route_broadcast` once per
lockstep step with every offering row, each naming its own partition,
and the router grants in the scalar broadcast's ascending input order,
so grant order, blocking, and the resulting event streams match the
scalar engine row for row.  :meth:`connect_batch` answers one connect
attempt at a time — the reference form; randomized lockstep tests pin
it against ``MultistageFabric`` through long connect/release
interleavings.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.errors import SchedulingError
from repro.networks.interchange import UPPER
from repro.networks.topology import MultistageTopology

_IntArray = NDArray[np.int64]


class BatchedMultistageRouter:
    """``K x G`` settled multistage fabrics advanced in lockstep.

    ``rows`` is the batch axis (replications, or points x replications in
    a mega-batch), ``partitions`` the number of independent fabrics per
    row.  All state starts empty, matching freshly built fabrics.
    """

    def __init__(self, topology: MultistageTopology, rows: int,
                 partitions: int = 1):
        self.topology = topology
        size = topology.size
        stages = topology.stages
        boxes = topology.boxes_per_stage
        self._size = size
        self._stages = stages
        # Wiring, flattened to per-stage gather vectors: link -> box,
        # link -> input port, and link -> next-column link per output.
        self._box_of: List[_IntArray] = []
        self._inport_of: List[_IntArray] = []
        self._up_link: List[_IntArray] = []
        self._lo_link: List[_IntArray] = []
        for stage in range(stages):
            pairs = [topology.input_map(stage, link) for link in range(size)]
            box_of = np.array([box for box, _ in pairs], dtype=np.int64)
            inport_of = np.array([port for _, port in pairs], dtype=np.int64)
            self._box_of.append(box_of)
            self._inport_of.append(inport_of)
            self._up_link.append(np.array(
                [topology.output_link(stage, int(box), UPPER)
                 for box in box_of], dtype=np.int64))
            self._lo_link.append(np.array(
                [topology.output_link(stage, int(box), 1 - UPPER)
                 for box in box_of], dtype=np.int64))
        self._busy = np.zeros((rows, partitions, stages + 1, size),
                              dtype=np.uint8)
        self._engaged = np.zeros((rows, partitions, stages, boxes, 2),
                                 dtype=np.uint8)
        self._taken = np.zeros((rows, partitions, stages, boxes, 2),
                               dtype=np.uint8)
        self._path_out = np.full((rows, partitions, size, stages), -1,
                                 dtype=np.int8)

    def _availability(self, reps: _IntArray, partitions: _IntArray,
                      acceptable: np.ndarray) -> np.ndarray:
        """Backward availability labelling for every row at once.

        Row ``i`` labels partition ``partitions[i]`` of batch row
        ``reps[i]``.  Returns a ``(len(reps), stages + 1, size)`` boolean
        plane: link ``l`` entering stage ``t`` is available iff it is
        free, its box input is unengaged, and some untaken output leads
        to an available next-column link; column ``stages`` holds the
        acceptable, free output links.  ``avail[:, 0, q]`` is therefore
        "a conflict-free circuit exists from input ``q``" — exactly the
        scalar fabric's labelling, row by row.
        """
        stages = self._stages
        busy = self._busy[reps, partitions]
        engaged = self._engaged[reps, partitions]
        taken = self._taken[reps, partitions]
        avail = np.empty((reps.shape[0], stages + 1, self._size), dtype=bool)
        avail[:, stages] = (acceptable != 0) & (busy[:, stages] == 0)
        for stage in range(stages - 1, -1, -1):
            box_of = self._box_of[stage]
            onward = avail[:, stage + 1]
            reach_up = ((taken[:, stage][:, box_of, UPPER] == 0)
                        & onward[:, self._up_link[stage]])
            reach_lo = ((taken[:, stage][:, box_of, 1 - UPPER] == 0)
                        & onward[:, self._lo_link[stage]])
            avail[:, stage] = (
                (busy[:, stage] == 0)
                & (engaged[:, stage][:, box_of, self._inport_of[stage]] == 0)
                & (reach_up | reach_lo))
        return avail

    def _claim(self, g_reps: _IntArray, partitions: _IntArray,
               input_ports: _IntArray, avail: np.ndarray) -> _IntArray:
        """Forward claim walk for rows the labelling granted.

        ``avail`` rows correspond to ``(g_reps, partitions)`` rows.
        Prefers the upper output as the box hardware does; the
        availability labels guarantee one branch works at every stage.
        Returns the connected output port per row.
        """
        stages = self._stages
        positions = np.arange(g_reps.shape[0])
        link = input_ports
        for stage in range(stages):
            box = self._box_of[stage][link]
            in_port = self._inport_of[stage][link]
            link_up = self._up_link[stage][link]
            link_lo = self._lo_link[stage][link]
            take_up = ((self._taken[g_reps, partitions, stage, box, UPPER]
                        == 0)
                       & avail[positions, stage + 1, link_up])
            if not take_up.all():
                lower = ~take_up
                lo_ok = ((self._taken[g_reps[lower], partitions[lower],
                                      stage, box[lower], 1 - UPPER] == 0)
                         & avail[positions[lower], stage + 1,
                                 link_lo[lower]])
                if not lo_ok.all():
                    raise SchedulingError(
                        "availability labelling inconsistent (router bug)")
            out = np.where(take_up, UPPER, 1 - UPPER).astype(np.int8)
            self._engaged[g_reps, partitions, stage, box, in_port] = 1
            self._taken[g_reps, partitions, stage, box, out] = 1
            self._busy[g_reps, partitions, stage, link] = 1
            self._path_out[g_reps, partitions, input_ports, stage] = out
            link = np.where(take_up, link_up, link_lo)
        self._busy[g_reps, partitions, stages, link] = 1
        return link

    def connect_batch(self, reps: _IntArray, partition: int, input_port: int,
                      acceptable: np.ndarray
                      ) -> Tuple[NDArray[np.bool_], _IntArray]:
        """One connect attempt from ``input_port``, for every row at once.

        ``reps`` are distinct batch rows attempting the connect;
        ``acceptable`` is their ``(len(reps), size)`` candidate-port mask
        (bus free with a free resource).  Claims circuits for the rows
        where a conflict-free path exists and returns ``(granted,
        output_ports)``: a boolean mask over ``reps`` and the connected
        output port of each granted row, in ``reps`` order.
        """
        partitions = np.full(reps.shape[0], partition, dtype=np.int64)
        avail = self._availability(reps, partitions, acceptable)
        granted = avail[:, 0, input_port]
        indices = np.nonzero(granted)[0]
        if indices.shape[0] == 0:
            return granted, np.empty(0, dtype=np.int64)
        ports = self._claim(
            reps[indices], partitions[indices],
            np.full(indices.shape[0], input_port, dtype=np.int64),
            avail[indices])
        return granted, ports

    def route_broadcast(self, reps: _IntArray, partitions: _IntArray,
                        requests: np.ndarray, acceptable: np.ndarray
                        ) -> Iterator[Tuple[_IntArray, _IntArray,
                                            _IntArray]]:
        """Route one status broadcast per row, all rows and inputs at once.

        Row ``i`` broadcasts in partition ``partitions[i]`` of batch row
        ``reps[i]``; the ``(reps, partitions)`` pairs must be distinct.
        ``requests`` marks each row's waiting inputs, ``acceptable`` its
        candidate output ports at broadcast time (bus free with a free
        resource).  Yields ``(positions, input_ports, output_ports)``
        grant waves — ``positions`` indexes into ``reps`` — claiming the
        circuits as it goes; the caller applies its own per-grant
        bookkeeping between waves.

        Equivalence with the scalar engine's ascending retry loop rests
        on monotonicity: during a broadcast grants only *add* occupancy
        (links, box ports, buses, resources), so an attempt that fails
        under the current labelling fails under every later one.  Each
        wave can therefore grant every row's lowest still-viable waiting
        input in one vectorized pass — the same grants, in the same
        per-row order, as attempting the inputs one by one — and drop
        the inputs the labelling refused without ever retrying them.
        A granted output port leaves the row's acceptable set (its bus
        went busy), matching the engine's own bookkeeping.  A row with no
        acceptable port left can grant nothing, so once every pending
        input sits on such a row, no labelling runs.
        """
        pending = requests != 0
        acceptable = acceptable != 0
        while True:
            pending &= acceptable.any(axis=1, keepdims=True)
            if not pending.any():
                return
            avail = self._availability(reps, partitions, acceptable)
            pending &= avail[:, 0]
            rows = np.nonzero(pending.any(axis=1))[0]
            if rows.shape[0] == 0:
                return
            inputs = pending[rows].argmax(axis=1).astype(np.int64)
            ports = self._claim(reps[rows], partitions[rows], inputs,
                                avail[rows])
            pending[rows, inputs] = False
            acceptable[rows, ports] = False
            yield rows, inputs, ports

    def release_batch(self, reps: _IntArray, partitions: _IntArray,
                      input_ports: _IntArray) -> None:
        """Tear down the circuits held by ``(rep, partition, input)`` rows.

        Rows must be distinct and must each hold a circuit from their
        input port; the stored per-stage output choices replay the path.
        """
        link = np.asarray(input_ports, dtype=np.int64).copy()
        for stage in range(self._stages):
            box = self._box_of[stage][link]
            in_port = self._inport_of[stage][link]
            out = self._path_out[reps, partitions, input_ports, stage]
            if (out < 0).any() or (
                    self._engaged[reps, partitions, stage, box, in_port]
                    == 0).any():
                raise SchedulingError(
                    "released circuit missing from box planes")
            self._engaged[reps, partitions, stage, box, in_port] = 0
            self._taken[reps, partitions, stage, box, out] = 0
            self._busy[reps, partitions, stage, link] = 0
            link = np.where(out == UPPER, self._up_link[stage][link],
                            self._lo_link[stage][link])
        self._busy[reps, partitions, self._stages, link] = 0
        self._path_out[reps, partitions, input_ports] = -1
