"""Multistage RSIN machinery: the circuit fabric and the clocked scheduler.

Two models at different fidelities, both built on a
:class:`~repro.networks.topology.MultistageTopology` (Omega or indirect
binary n-cube):

* :class:`MultistageFabric` — used by the queueing simulator.  Requests are
  routed one at a time against the current link occupancy with fully
  settled status information (between task events the status lines have
  time to converge), so a request finds a free resource whenever a
  conflict-free path exists, and is blocked otherwise.

* :class:`ClockedMultistageScheduler` — a tick-accurate model of the
  distributed algorithm of Fig. 10: status bits propagate backward one
  stage per tick, queries race forward against possibly *outdated*
  registers, and wrong turns produce rejects and re-routing.  This is the
  model behind the worked example of Fig. 11 (3.5 boxes per request) and
  the blocking-probability comparison of Section V.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

from repro.errors import ConfigurationError, SchedulingError
from repro.networks.base import Connection, NetworkFabric
from repro.networks.interchange import (
    DEFAULT_TYPE,
    LOWER,
    UPPER,
    BoxMessage,
    InterchangeBox,
    QueryToken,
)
from repro.networks.topology import Link, MultistageTopology

# ---------------------------------------------------------------------------
# Fabric for the queueing simulator
# ---------------------------------------------------------------------------


class MultistageFabric(NetworkFabric):
    """Circuit-switched multistage network with settled status information.

    Fault injection targets interchange boxes: a failed box
    ``("box", (stage, index))`` stops propagating status (its availability
    registers read empty), so the distributed-backtracking search simply
    routes requests around it wherever an alternative conflict-free path to
    a candidate port exists — exactly the paper's reject/reroute mechanism
    reacting to a box that never raises an S signal.  Circuits holding the
    box when it fails are severed.
    """

    def __init__(self, topology: MultistageTopology):
        super().__init__(inputs=topology.size, outputs=topology.size)
        self.topology = topology
        self._busy: Set[Link] = set()
        self._box_usage: Dict[Tuple[int, int], Dict[int, int]] = defaultdict(dict)
        # Precomputed input maps: stage -> link -> (box, port).
        self._in_map: List[List[Tuple[int, int]]] = [
            [topology.input_map(stage, link) for link in range(topology.size)]
            for stage in range(topology.stages)
        ]
        self._components: Tuple[Tuple, ...] = tuple(
            ("box", (stage, index))
            for stage in range(topology.stages)
            for index in range(topology.boxes_per_stage))

    # -- fault injection -------------------------------------------------------
    def fault_components(self) -> Tuple[Tuple, ...]:
        return self._components

    def _connection_uses(self, connection, component) -> bool:
        _kind, (stage, box) = component
        for column, index in connection.links:
            if column == stage and self._in_map[stage][index][0] == box:
                return True
        return False

    def _allowed_outputs(self, stage: int, box: int, in_port: int) -> List[int]:
        if self._failed and ("box", (stage, box)) in self._failed:
            return []
        usage = self._box_usage.get((stage, box))
        if not usage:
            return [UPPER, LOWER]
        if in_port in usage or len(usage) == 2:
            return []
        taken = set(usage.values())
        return [port for port in (UPPER, LOWER) if port not in taken]

    def _availability(self, candidates) -> Set[Link]:
        """Links from which some candidate port is reachable conflict-free."""
        available: Set[Link] = {
            (self.topology.stages, port)
            for port in candidates
            if (self.topology.stages, port) not in self._busy
        }
        for stage in range(self.topology.stages - 1, -1, -1):
            for link in range(self.topology.size):
                if (stage, link) in self._busy:
                    continue
                box, in_port = self._in_map[stage][link]
                for out_port in self._allowed_outputs(stage, box, in_port):
                    out_link = (stage + 1, self.topology.output_link(stage, box, out_port))
                    if out_link in available:
                        available.add((stage, link))
                        break
        return available

    def _find_circuit(self, input_port: int, candidates) -> Optional[Connection]:
        if not candidates:
            return None
        available = self._availability(candidates)
        if (0, input_port) not in available:
            return None
        path: List[Link] = [(0, input_port)]
        link = input_port
        for stage in range(self.topology.stages):
            box, in_port = self._in_map[stage][link]
            chosen = None
            for out_port in self._allowed_outputs(stage, box, in_port):
                out_link = (stage + 1, self.topology.output_link(stage, box, out_port))
                if out_link in available:
                    chosen = (out_port, out_link)
                    break  # prefer the upper output, as the box hardware does
            if chosen is None:
                raise SchedulingError(
                    "availability labelling inconsistent (fabric bug)")
            out_port, out_link = chosen
            self._box_usage[(stage, box)][in_port] = out_port
            path.append(out_link)
            link = out_link[1]
        for held in path:
            self._busy.add(held)
        return Connection(
            input_port=input_port,
            output_port=link,
            links=frozenset(path),
            hops=self.topology.stages,
        )

    def _after_release(self, connection: Connection) -> None:
        for link in connection.links:
            self._busy.discard(link)
        by_column = {column: index for column, index in connection.links}
        for stage in range(self.topology.stages):
            box, in_port = self._in_map[stage][by_column[stage]]
            usage = self._box_usage.get((stage, box))
            if usage is None or in_port not in usage:
                raise SchedulingError("released circuit missing from box usage")
            del usage[in_port]



# ---------------------------------------------------------------------------
# Clocked distributed scheduler (Fig. 10 / Fig. 11)
# ---------------------------------------------------------------------------


@dataclass
class RequestOutcome:
    """Fate of one request in a clocked scheduling round."""

    source: int
    resource_type: Hashable = DEFAULT_TYPE
    port: Optional[int] = None
    hops: int = 0
    attempts: int = 1
    completed_tick: Optional[int] = None

    @property
    def allocated(self) -> bool:
        """Whether the request captured a resource."""
        return self.port is not None


@dataclass
class ScheduleResult:
    """Aggregate outcome of a clocked scheduling round."""

    outcomes: Dict[int, RequestOutcome]
    ticks: int

    @property
    def allocated(self) -> List[RequestOutcome]:
        """Outcomes that captured a resource."""
        return [o for o in self.outcomes.values() if o.allocated]

    @property
    def blocked(self) -> List[RequestOutcome]:
        """Outcomes that never captured a resource."""
        return [o for o in self.outcomes.values() if not o.allocated]

    @property
    def total_hops(self) -> int:
        """Interchange boxes traversed, summed over every request."""
        return sum(o.hops for o in self.outcomes.values())

    @property
    def average_hops(self) -> float:
        """Mean boxes traversed per request (the paper's Fig. 11 metric)."""
        if not self.outcomes:
            return 0.0
        return self.total_hops / len(self.outcomes)

    @property
    def blocking_fraction(self) -> float:
        """Fraction of requests left unallocated."""
        if not self.outcomes:
            return 0.0
        return len(self.blocked) / len(self.outcomes)


class ClockedMultistageScheduler:
    """Tick-accurate distributed resource scheduling on a multistage network.

    Status bits move one stage per tick toward the processors; queries move
    one stage per tick toward the resources, consuming availability
    registers as they go (a register is zeroed when a query is forwarded
    through it and refreshed by the next status wave).  Rejects unwind one
    stage per tick and are serviced before queries, as in Fig. 10.

    **Resource types** (the Section V extension): each output port may hold
    resources of several types; every box keeps one availability register
    per (output port, type), the status wave carries one bit per type, and
    a query only follows registers of its own type.  With one type this is
    exactly the paper's base algorithm.

    The scheduler is *static*: it resolves one batch of simultaneous
    requests against a fixed set of free resources, which is exactly the
    regime of the paper's Fig. 11 example and its blocking-probability
    experiments.  (The queueing simulator uses :class:`MultistageFabric`
    instead, where status has settled between events.)

    **Incremental status** (default): instead of recomputing every
    availability register on every tick, the scheduler dirty-marks the
    registers whose inputs — link occupancy, box circuits, downstream
    registers, or per-port free counts — actually changed, and each wave
    recomputes only the marked registers.  A register changed by a wave
    marks its upstream readers for the *next* wave, which reproduces the
    one-stage-per-tick double-buffered latency of the full recompute
    exactly; ``incremental_status=False`` keeps the original full
    recompute as the behavioral reference, and the property tests drive
    both in lockstep through random allocate/release/fault sequences.
    """

    def __init__(self, topology: MultistageTopology, free_resources,
                 incremental_status: bool = True):
        self.topology = topology
        self.incremental_status = incremental_status
        self.free_resources = self._normalize_resources(free_resources)
        self.resource_types: Tuple[Hashable, ...] = tuple(sorted(
            {rtype
             for per_port in self.free_resources.values()
             for rtype in per_port},
            key=repr,
        )) or (DEFAULT_TYPE,)
        self.boxes: List[List[InterchangeBox]] = [
            [InterchangeBox(stage, index, self.resource_types)
             for index in range(topology.boxes_per_stage)]
            for stage in range(topology.stages)
        ]
        self._busy: Set[Link] = set()
        self._in_map: List[List[Tuple[int, int]]] = [
            [topology.input_map(stage, link) for link in range(topology.size)]
            for stage in range(topology.stages)
        ]
        # Reverse maps for dirty propagation.  _producer[c][l] is the
        # (box, out_port) at stage c-1 driving link (c, l); _box_inputs
        # lists each box's input links.
        self._producer: List[List[Tuple[int, int]]] = [
            [(-1, -1)] * topology.size for _ in range(topology.stages + 1)
        ]
        for stage in range(topology.stages):
            for box_index in range(topology.boxes_per_stage):
                for out_port in (UPPER, LOWER):
                    link = topology.output_link(stage, box_index, out_port)
                    self._producer[stage + 1][link] = (box_index, out_port)
        self._box_inputs: List[List[List[int]]] = [
            [[] for _ in range(topology.boxes_per_stage)]
            for _ in range(topology.stages)
        ]
        for stage in range(topology.stages):
            for link in range(topology.size):
                box_index, _in_port = self._in_map[stage][link]
                self._box_inputs[stage][box_index].append(link)
        # Every register starts dirty: the first waves compute them all.
        self._dirty: Set[Tuple[int, int, int]] = {
            (stage, box_index, out_port)
            for stage in range(topology.stages)
            for box_index in range(topology.boxes_per_stage)
            for out_port in (UPPER, LOWER)
        }
        self._inbox: List[BoxMessage] = []
        self._pending: List[QueryToken] = []
        self._outcomes: Dict[int, RequestOutcome] = {}
        self._tick = 0

    def _normalize_resources(self, free_resources) -> Dict[int, Dict[Hashable, int]]:
        """Accept {port: count}, {port: {type: count}}, or a count sequence."""
        if isinstance(free_resources, Mapping):
            items = free_resources.items()
        else:
            items = enumerate(free_resources)
        normalized: Dict[int, Dict[Hashable, int]] = defaultdict(dict)
        for port, value in items:
            if not 0 <= port < self.topology.size:
                raise ConfigurationError(f"port {port} out of range")
            if isinstance(value, Mapping):
                typed = dict(value)
            else:
                typed = {DEFAULT_TYPE: value}
            for rtype, count in typed.items():
                if count < 0:
                    raise ConfigurationError(
                        f"negative resource count at port {port}")
                normalized[port][rtype] = count
        return normalized

    def _free_count(self, port: int, resource_type: Hashable) -> int:
        return self.free_resources.get(port, {}).get(resource_type, 0)

    # -- external resource events ---------------------------------------------
    def set_resources(self, port: int, count: int,
                      resource_type: Hashable = DEFAULT_TYPE) -> None:
        """Set a port's free count (allocate/release/fault/repair events).

        Goes through the scheduler so the status fabric learns about the
        change: the register watching the port is dirty-marked and the next
        waves propagate the new availability backward stage by stage.
        """
        if not 0 <= port < self.topology.size:
            raise ConfigurationError(f"port {port} out of range")
        if resource_type not in self.resource_types:
            raise ConfigurationError(
                f"unknown resource type {resource_type!r}")
        if count < 0:
            raise ConfigurationError(
                f"negative resource count at port {port}")
        self.free_resources.setdefault(port, {})[resource_type] = count
        self._mark_resource(port)

    def adjust_resources(self, port: int, delta: int,
                         resource_type: Hashable = DEFAULT_TYPE) -> None:
        """Add ``delta`` to a port's free count (may be negative)."""
        current = self._free_count(port, resource_type)
        self.set_resources(port, current + delta, resource_type)

    # -- dirty propagation ------------------------------------------------------
    def _mark_box_readers(self, stage: int, box_index: int) -> None:
        """Mark the upstream registers whose status scans box ``(stage, box)``.

        Those are the (at most two) stage ``stage - 1`` registers driving
        the box's input links; a stage-0 box is read only by the live
        processor status lines, which are never cached.
        """
        if stage == 0:
            return
        producers = self._producer[stage]
        for link in self._box_inputs[stage][box_index]:
            box, out_port = producers[link]
            self._dirty.add((stage - 1, box, out_port))

    def _mark_link(self, link: Link) -> None:
        """Mark every register that reads the occupancy of ``link``."""
        column, index = link
        if column == 0:
            return  # read only by the live processor status lines
        box, out_port = self._producer[column][index]
        self._dirty.add((column - 1, box, out_port))
        if column >= 2:
            # The producing box's outputs are also scanned one stage
            # further upstream (the inner loop of the status formula).
            self._mark_box_readers(column - 1, box)

    def _mark_resource(self, port: int) -> None:
        """Mark the last-stage register watching a port's free counts."""
        box, out_port = self._producer[self.topology.stages][port]
        self._dirty.add((self.topology.stages - 1, box, out_port))

    def _occupy_link(self, link: Link) -> None:
        self._busy.add(link)
        self._mark_link(link)

    def _release_link(self, link: Link) -> None:
        self._busy.discard(link)
        self._mark_link(link)

    def _engage(self, box: InterchangeBox, in_port: int, out_port: int) -> None:
        box.engage(in_port, out_port)
        self._mark_box_readers(box.stage, box.index)

    def _disengage(self, box: InterchangeBox, in_port: int) -> None:
        box.disengage(in_port)
        self._mark_box_readers(box.stage, box.index)

    def _write_register(self, box: InterchangeBox, out_port: int,
                        resource_type: Hashable, value: bool) -> None:
        """An out-of-wave register write (query zeroing, stale refusal).

        The register itself is marked so the next wave recomputes it from
        its true inputs — full recompute restores such writes one tick
        later, and the incremental path must do the same — and its
        upstream readers are marked because its value changed.
        """
        box.set_available(out_port, resource_type, value)
        self._dirty.add((box.stage, box.index, out_port))
        self._mark_box_readers(box.stage, box.index)

    def _take_resource(self, port: int, resource_type: Hashable) -> None:
        self.free_resources[port][resource_type] -= 1
        self._mark_resource(port)

    # -- status propagation ----------------------------------------------------
    def _refresh_status(self) -> None:
        """One backward status wave (incremental or full recompute)."""
        if self.incremental_status:
            self._refresh_status_incremental()
        else:
            self._refresh_status_full()

    def _refresh_status_incremental(self) -> None:
        """Recompute only the dirty registers, in ascending stage order.

        Ascending order preserves the double-buffered semantics of the
        full recompute without snapshots: a stage ``s`` register reads
        stage ``s + 1`` registers that this pass has not yet rewritten,
        i.e. their start-of-tick values.  Registers whose recomputed value
        actually changed mark their upstream readers — for the *next*
        wave, matching the one-stage-per-tick propagation latency.
        """
        dirty = sorted(self._dirty)
        self._dirty = set()
        last = self.topology.stages - 1
        for stage, box_index, out_port in dirty:
            box = self.boxes[stage][box_index]
            out_link = (stage + 1,
                        self.topology.output_link(stage, box_index, out_port))
            link_busy = out_link in self._busy
            changed = False
            for rtype in self.resource_types:
                if stage == last:
                    value = (self._free_count(out_link[1], rtype) > 0
                             and not link_busy)
                else:
                    next_index, next_port = self._in_map[stage + 1][out_link[1]]
                    next_box = self.boxes[stage + 1][next_index]
                    value = (not link_busy
                             and self._status_live(next_box, next_port, rtype))
                if value != box.is_available(out_port, rtype):
                    box.set_available(out_port, rtype, value)
                    changed = True
            if changed:
                self._mark_box_readers(stage, box_index)

    def _status_live(self, box: InterchangeBox, in_port: int,
                     resource_type: Hashable) -> bool:
        """The status formula against live registers (see ascending-order
        note in :meth:`_refresh_status_incremental`)."""
        if in_port in box.circuit:
            return False
        stage = box.stage
        for out_port in box.allowed_outputs(in_port):
            out_link = (stage + 1,
                        self.topology.output_link(stage, box.index, out_port))
            if (box.is_available(out_port, resource_type)
                    and out_link not in self._busy):
                return True
        return False

    def _refresh_status_full(self) -> None:
        """One backward status wave, double-buffered (one stage of latency).

        All types propagate in the same wave — in hardware the S signal is
        a vector of one bit per type (the paper's ``O(t log N)`` overhead
        accounts for serializing them on one line).  This is the reference
        implementation the incremental path is tested against.
        """
        last = self.topology.stages - 1
        snapshot = [
            [box.snapshot() for box in stage_boxes]
            for stage_boxes in self.boxes
        ]
        for stage in range(self.topology.stages):
            for box in self.boxes[stage]:
                for out_port in (UPPER, LOWER):
                    out_link = (stage + 1,
                                self.topology.output_link(stage, box.index, out_port))
                    link_busy = out_link in self._busy
                    for rtype in self.resource_types:
                        if stage == last:
                            value = (self._free_count(out_link[1], rtype) > 0
                                     and not link_busy)
                        else:
                            next_index, next_port = self._in_map[stage + 1][out_link[1]]
                            next_box = self.boxes[stage + 1][next_index]
                            value = not link_busy and self._status_from_snapshot(
                                next_box, next_port,
                                snapshot[stage + 1][next_index], rtype)
                        box.set_available(out_port, rtype, value)

    def _status_from_snapshot(self, box: InterchangeBox, in_port: int,
                              old_available, resource_type: Hashable) -> bool:
        if in_port in box.circuit:
            return False
        stage = box.stage
        for out_port in box.allowed_outputs(in_port):
            out_link = (stage + 1,
                        self.topology.output_link(stage, box.index, out_port))
            if (old_available[out_port].get(resource_type, False)
                    and out_link not in self._busy):
                return True
        return False

    def _input_status(self, source: int, resource_type: Hashable) -> bool:
        """What the processor at ``source`` sees on its status line."""
        if (0, source) in self._busy:
            return False
        box_index, in_port = self._in_map[0][source]
        box = self.boxes[0][box_index]
        return box.status_for_input(
            in_port,
            lambda out: (1, self.topology.output_link(0, box_index, out))
            not in self._busy,
            resource_type,
        )

    # -- query movement -------------------------------------------------------
    def _forward(self, stage: int, box: InterchangeBox, in_port: int,
                 token: QueryToken, emit: List[BoxMessage]) -> bool:
        """Try to push ``token`` out of ``box``; True when it moved forward."""
        rtype = token.resource_type
        for out_port in (UPPER, LOWER):
            if out_port not in box.allowed_outputs(in_port):
                continue
            if not box.is_available(out_port, rtype):
                continue
            out_link = (stage + 1,
                        self.topology.output_link(stage, box.index, out_port))
            if out_link in self._busy:
                continue
            if stage == self.topology.stages - 1:
                port = out_link[1]
                if self._free_count(port, rtype) <= 0:
                    # The register was stale; the controller refuses.
                    self._write_register(box, out_port, rtype, False)
                    continue
                # Capture: the C (found) signal confirms along the path.
                self._engage(box, in_port, out_port)
                self._occupy_link(out_link)
                self._take_resource(port, rtype)
                token.trail.append((stage, box.index, in_port, out_port))
                outcome = self._outcomes[token.request_id]
                outcome.port = port
                outcome.completed_tick = self._tick
                return True
            self._engage(box, in_port, out_port)
            # Zeroed on query forward (Fig. 10) — only the query's own type.
            self._write_register(box, out_port, rtype, False)
            self._occupy_link(out_link)
            token.trail.append((stage, box.index, in_port, out_port))
            next_box, next_port = self._in_map[stage + 1][out_link[1]]
            emit.append(BoxMessage(kind="query", stage=stage + 1,
                                   box=next_box, port=next_port, token=token))
            return True
        return False

    def _bounce(self, stage: int, in_port: int, token: QueryToken,
                emit: List[BoxMessage]) -> None:
        """Send a reject upstream from stage ``stage`` input ``in_port``."""
        if stage == 0:
            self._release_link((0, token.source))
            token.attempts += 1
            self._pending.append(token)
            return
        last_stage, last_box, last_in, last_out = token.trail[-1]
        emit.append(BoxMessage(kind="reject", stage=last_stage, box=last_box,
                               port=last_out, token=token))

    # -- the tick loop -----------------------------------------------------------
    def run(self, requesters, max_ticks: int = 10_000) -> ScheduleResult:
        """Resolve a batch of simultaneous single-resource requests.

        ``requesters`` is a sequence of source indices (single-type
        systems) or of ``(source, resource_type)`` pairs.
        """
        normalized: List[Tuple[int, Hashable]] = []
        for item in requesters:
            if isinstance(item, tuple):
                source, rtype = item
            else:
                source, rtype = item, DEFAULT_TYPE
            normalized.append((source, rtype))
        seen = set()
        for source, rtype in normalized:
            if not 0 <= source < self.topology.size:
                raise ConfigurationError(f"requester {source} out of range")
            if source in seen:
                raise ConfigurationError(f"duplicate requester {source}")
            seen.add(source)
        self._outcomes = {
            source: RequestOutcome(source=source, resource_type=rtype)
            for source, rtype in normalized
        }
        tokens = [
            QueryToken(request_id=source, source=source, resource_type=rtype)
            for source, rtype in normalized
        ]
        self._pending = list(tokens)
        self._inbox = []
        # Phase 1: let the status wave cross the network once.
        for _ in range(self.topology.stages):
            self._refresh_status()
        idle_ticks = 0
        self._tick = 0
        while self._tick < max_ticks:
            self._tick += 1
            self._refresh_status()
            moved = self._step()
            if moved:
                idle_ticks = 0
            else:
                idle_ticks += 1
                # Let any in-flight status waves settle before giving up.
                if idle_ticks > self.topology.stages + 1:
                    break
        for token in tokens:
            outcome = self._outcomes[token.request_id]
            outcome.hops = token.hops
            outcome.attempts = token.attempts
        return ScheduleResult(outcomes=dict(self._outcomes), ticks=self._tick)

    def _step(self) -> bool:
        emit: List[BoxMessage] = []
        moved = False
        # Processors (re)submit when their status line shows availability.
        still_pending: List[QueryToken] = []
        for token in self._pending:
            if self._input_status(token.source, token.resource_type):
                self._occupy_link((0, token.source))
                box_index, in_port = self._in_map[0][token.source]
                self._inbox.append(BoxMessage(kind="query", stage=0,
                                              box=box_index, port=in_port,
                                              token=token))
                moved = True
            else:
                still_pending.append(token)
        self._pending = still_pending
        # Group this tick's messages per box; service rejects before queries,
        # and the upper input before the lower one (Fig. 10 priorities).
        by_box: Dict[Tuple[int, int], List[BoxMessage]] = defaultdict(list)
        for message in self._inbox:
            by_box[(message.stage, message.box)].append(message)
        self._inbox = []
        kind_rank = {"reject": 0, "query": 1}
        for (stage, box_index), messages in sorted(by_box.items()):
            box = self.boxes[stage][box_index]
            messages.sort(key=lambda m: (kind_rank[m.kind], m.port))
            for message in messages:
                moved = True
                token = message.token
                if message.kind == "reject":
                    # Unwind the hop that chose the refused output.
                    last_stage, last_box, last_in, last_out = token.trail.pop()
                    assert (last_stage, last_box) == (stage, box_index)
                    self._disengage(box, last_in)
                    out_link = (stage + 1,
                                self.topology.output_link(stage, box_index, last_out))
                    self._release_link(out_link)
                    self._write_register(box, last_out, token.resource_type, False)
                    token.hops += 1  # the box is traversed again on re-routing
                    if not self._forward(stage, box, last_in, token, emit):
                        self._bounce(stage, last_in, token, emit)
                else:
                    token.hops += 1
                    if not self._forward(stage, box, message.port, token, emit):
                        self._bounce(stage, message.port, token, emit)
        self._inbox.extend(emit)
        return moved
