"""Address-mapping (destination-tag) operation: the prior-art baseline.

A conventional interconnection network routes a request to a *specific*
destination supplied up front by a centralized scheduler.  The paper
contrasts this with distributed resource search; this module provides the
baseline side of that comparison:

* tag-routing a set of (source, destination) pairs and detecting link
  conflicts (the Section II worked example);
* the best achievable mapping by exhaustive enumeration — what a
  centralized scheduler would need ``C(x, y) y!`` trials to find;
* random-mapping blocking experiments matching the ~0.3 blocking
  probability the paper quotes for an 8x8 address-mapped Omega network.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.networks.topology import Link, MultistageTopology
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class RoutingOutcome:
    """Result of routing a batch of tagged requests."""

    routed: Dict[int, int]          # source -> destination successfully routed
    blocked: List[int]              # sources refused because of link conflicts

    @property
    def blocking_fraction(self) -> float:
        """Fraction of the batch that could not be routed."""
        total = len(self.routed) + len(self.blocked)
        return len(self.blocked) / total if total else 0.0


def sequential_tag_routing(topology: MultistageTopology,
                           pairs: Sequence[Tuple[int, int]]) -> RoutingOutcome:
    """Route tagged pairs one at a time, rejecting on any link conflict.

    This models a centralized scheduler that assigns destinations first and
    then discovers, request by request, which circuits actually fit.
    """
    used: Set[Link] = set()
    routed: Dict[int, int] = {}
    blocked: List[int] = []
    for source, destination in pairs:
        path = topology.route_by_tag(source, destination)
        if any(link in used for link in path):
            blocked.append(source)
            continue
        used.update(path)
        routed[source] = destination
    return RoutingOutcome(routed=routed, blocked=blocked)


def max_conflict_free(topology: MultistageTopology, sources: Sequence[int],
                      destinations: Sequence[int]) -> Tuple[int, Dict[int, int]]:
    """The largest link-disjoint set of source->destination circuits.

    Exhaustive enumeration over ordered mappings — the ``C(x, y) y!``
    search the paper attributes to an optimal centralized scheduler.  Only
    practical for small request sets, which is precisely the paper's point.
    """
    sources = list(dict.fromkeys(sources))
    destinations = list(dict.fromkeys(destinations))
    width = min(len(sources), len(destinations))
    for k in range(width, 0, -1):
        for chosen_sources in itertools.combinations(sources, k):
            for chosen_destinations in itertools.permutations(destinations, k):
                pairs = list(zip(chosen_sources, chosen_destinations))
                if not topology.paths_conflict(pairs):
                    return k, dict(pairs)
    return 0, {}


def random_mapping_outcome(topology: MultistageTopology, sources: Sequence[int],
                           destinations: Sequence[int],
                           rng: RngStream) -> RoutingOutcome:
    """Route a random one-to-one mapping of sources onto free destinations.

    Models an address-mapping scheduler that picks destinations without
    network-state knowledge — the regime in which the ~0.3 blocking
    probability of the comparison literature arises.
    """
    sources = list(dict.fromkeys(sources))
    destinations = list(dict.fromkeys(destinations))
    rng.shuffle(sources)
    rng.shuffle(destinations)
    pairs = list(zip(sources, destinations))
    return sequential_tag_routing(topology, pairs)


def permutation_passable(topology: MultistageTopology,
                         permutation: Sequence[int]) -> bool:
    """Whether a full permutation routes without conflicts (blocking test)."""
    size = topology.size
    if sorted(permutation) != list(range(size)):
        raise ConfigurationError("not a permutation of the network terminals")
    return not topology.paths_conflict(list(enumerate(permutation)))
