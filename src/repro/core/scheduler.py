"""Centralized scheduling baselines (the approach the paper argues against).

Under centralized scheduling a single allocator searches for a free
resource, hands its *address* to the request, and sets the network —
sequentially, one request at a time.  The paper quotes the resulting
overheads, which these models reproduce as closed-form delay accounting on
the same abstractions used by the distributed models:

* crossbar + priority circuit [Foster]: ``O(log2 m)`` to find a free
  resource, ``O(log2 (p m))`` to decode and set the crosspoint, hence
  ``O(p log2 m)`` to serve p requests (Section IV);
* tree allocator [Rathi et al.]: ``O(m)`` selection delay (Section I);
* multistage network with address mapping: ``O(log2 N)`` per attempt but
  ``O(N)`` re-tries under blocking, hence ``O(N^2 log2 N)`` for N requests
  (Section V).

Delays are in gate-delay units so they can be compared directly with the
distributed wavefront's ``4 (p + m)`` request cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import ConfigurationError
from repro.networks.topology import Link, MultistageTopology
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class CentralizedOutcome:
    """Result of a centralized scheduling round."""

    assignment: Dict[int, int]      # request -> resource/port
    unserved: List[int]
    delay_units: int                # modeled gate-delay/selection cost
    attempts: int                   # routing attempts (incl. blocked retries)


def _ceil_log2(value: int) -> int:
    if value < 1:
        raise ConfigurationError(f"log2 of non-positive value {value}")
    return max(1, math.ceil(math.log2(value))) if value > 1 else 1


def priority_circuit_crossbar(requests: Sequence[int], free_resources: Sequence[int],
                              processors: int, resources: int) -> CentralizedOutcome:
    """Centralized crossbar scheduling with a priority circuit.

    Requests are served strictly one after another: each pays
    ``ceil(log2 m)`` for the priority circuit plus ``ceil(log2 (p * m))``
    to set the crosspoint.  The crossbar itself never blocks.
    """
    free = sorted(set(free_resources))
    per_request = _ceil_log2(resources) + _ceil_log2(processors * resources)
    assignment: Dict[int, int] = {}
    unserved: List[int] = []
    delay = 0
    for request in requests:
        delay += per_request
        if free:
            assignment[request] = free.pop(0)
        else:
            unserved.append(request)
    return CentralizedOutcome(assignment=assignment, unserved=unserved,
                              delay_units=delay, attempts=len(requests))


def tree_allocator(requests: Sequence[int], free_resources: Sequence[int],
                   resources: int) -> CentralizedOutcome:
    """The O(m)-delay tree selection network of Rathi/Tripathi/Lipovski."""
    free = sorted(set(free_resources))
    assignment: Dict[int, int] = {}
    unserved: List[int] = []
    delay = 0
    for request in requests:
        delay += resources  # O(m) selection walk per request
        if free:
            assignment[request] = free.pop(0)
        else:
            unserved.append(request)
    return CentralizedOutcome(assignment=assignment, unserved=unserved,
                              delay_units=delay, attempts=len(requests))


def centralized_multistage(topology: MultistageTopology, requests: Sequence[int],
                           free_resources: Sequence[int],
                           rng: Optional[RngStream] = None) -> CentralizedOutcome:
    """Centralized scheduling on a blocking multistage network.

    The scheduler picks a free resource for each request and attempts to
    set the tag-routed path; if the path conflicts with circuits already
    set in this round, it retries with the next free resource.  Each
    attempt costs ``ceil(log2 N)`` (find a resource, set the switches).
    With ``O(N)`` retries per request this realizes the paper's
    ``O(N^2 log2 N)`` bound.
    """
    rng = rng if rng is not None else RngStream(0, name="centralized-multistage")
    free: List[int] = sorted(set(free_resources))
    used_links: Set[Link] = set()
    per_attempt = _ceil_log2(topology.size)
    assignment: Dict[int, int] = {}
    unserved: List[int] = []
    delay = 0
    attempts = 0
    for request in requests:
        candidates = list(free)
        rng.shuffle(candidates)
        placed = False
        for resource in candidates:
            attempts += 1
            delay += per_attempt
            path = topology.route_by_tag(request, resource)
            if any(link in used_links for link in path):
                continue
            used_links.update(path)
            free.remove(resource)
            assignment[request] = resource
            placed = True
            break
        if not placed:
            if not candidates:
                attempts += 1
                delay += per_attempt
            unserved.append(request)
    return CentralizedOutcome(assignment=assignment, unserved=unserved,
                              delay_units=delay, attempts=attempts)


def distributed_crossbar_delay(processors: int, resources: int) -> int:
    """Gate delays of one distributed request cycle: ``4 (p + m)``."""
    return 4 * (processors + resources)


def distributed_multistage_delay(size: int, ports_per_box: int = 2) -> int:
    """Per-stage ``O(r log2 r)`` worst case over ``log2 N`` stages."""
    per_stage = max(1, ports_per_box * _ceil_log2(ports_per_box))
    return per_stage * _ceil_log2(size)
