"""Blocking-probability experiments (Section V).

The paper quotes, for an 8x8 Omega network with a free fabric and "random
sets of requesting processors and available resources":

* distributed resource search (RSIN): blocking probability about **0.15**;
* conventional address mapping: about **0.3** (Franklin's measurement).

These experiments regenerate the comparison.  Three schedulers are
measured on identical random instances:

* ``rsin`` — the clocked distributed scheduler (queries, rejects,
  re-routing);
* ``address_random`` — a centralized scheduler that fixes a random
  one-to-one mapping up front, then discovers the conflicts;
* ``address_sequential`` — as above but requests routed in index order
  (the scheduler variant with deterministic service order);
* ``optimal`` — exhaustive best mapping (small instances only), the floor
  any scheduler could reach.

Blocking is counted against what is *feasible*: with ``x`` requesters and
``y`` free resources, ``min(x, y)`` allocations are possible on a
non-blocking network, and every shortfall from that is charged as blocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.matching import optimal_allocation
from repro.errors import ConfigurationError
from repro.networks.address_mapping import (
    random_mapping_outcome,
    sequential_tag_routing,
)
from repro.networks.omega import ClockedMultistageScheduler
from repro.networks.topology import make_topology
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class BlockingPoint:
    """Blocking probabilities at one request-set size."""

    request_size: int
    trials: int
    rsin: float
    address_random: float
    address_sequential: float
    optimal: Optional[float] = None


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")


def blocking_comparison(topology_kind: str = "OMEGA", size: int = 8,
                        request_sizes: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
                        trials: int = 400, seed: int = 0,
                        include_optimal: bool = False,
                        optimal_limit: int = 64) -> List[BlockingPoint]:
    """Blocking probability versus request-set size, scheduler by scheduler.

    Each trial draws ``k`` requesting processors and ``k`` singly-resourced
    free output ports uniformly at random on a free network, then resolves
    the batch with each scheduler.  ``include_optimal`` adds the optimal
    floor, computed by the polynomial max-flow allocator
    (:func:`repro.analysis.matching.optimal_allocation`) up to
    ``optimal_limit`` requests.
    """
    _require_trials(trials)
    rng = RandomStreams(seed).stream("blocking-comparison")
    points: List[BlockingPoint] = []
    for k in request_sizes:
        if not 1 <= k <= size:
            raise ConfigurationError(f"request size {k} out of range for N={size}")
        rsin_blocked = random_blocked = sequential_blocked = 0
        optimal_blocked: Optional[int] = 0 if (include_optimal and
                                               k <= optimal_limit) else None
        feasible_total = 0
        for _ in range(trials):
            requesters = rng.sample(range(size), k)
            free_ports = rng.sample(range(size), k)
            feasible_total += k
            topology = make_topology(topology_kind, size)
            scheduler = ClockedMultistageScheduler(
                topology, {port: 1 for port in free_ports})
            result = scheduler.run(requesters)
            rsin_blocked += k - len(result.allocated)
            outcome = random_mapping_outcome(
                topology, list(requesters), list(free_ports), rng)
            random_blocked += k - len(outcome.routed)
            ordered = sequential_tag_routing(
                topology, list(zip(sorted(requesters), sorted(free_ports))))
            sequential_blocked += k - len(ordered.routed)
            if optimal_blocked is not None:
                best, _mapping = optimal_allocation(topology, requesters,
                                                    free_ports)
                optimal_blocked += k - best
        points.append(BlockingPoint(
            request_size=k,
            trials=trials,
            rsin=rsin_blocked / feasible_total,
            address_random=random_blocked / feasible_total,
            address_sequential=sequential_blocked / feasible_total,
            optimal=(optimal_blocked / feasible_total
                     if optimal_blocked is not None else None),
        ))
    return points


def full_permutation_blocking(topology_kind: str = "OMEGA", size: int = 8,
                              trials: int = 1000, seed: int = 0) -> Dict[str, float]:
    """Blocking under full load: every processor requests, every port free.

    The address-mapping side reproduces the classic ~0.3 per-connection
    blocking of a random permutation on an 8x8 Omega; the distributed side
    shows the gain of searching instead of aiming.
    """
    _require_trials(trials)
    rng = RandomStreams(seed).stream("permutation-blocking")
    address_blocked = 0.0
    rsin_blocked = 0.0
    for _ in range(trials):
        topology = make_topology(topology_kind, size)
        permutation = list(range(size))
        rng.shuffle(permutation)
        outcome = sequential_tag_routing(topology, list(enumerate(permutation)))
        address_blocked += len(outcome.blocked) / size
        scheduler = ClockedMultistageScheduler(topology, [1] * size)
        result = scheduler.run(list(range(size)))
        rsin_blocked += len(result.blocked) / size
    return {
        "address_mapping": address_blocked / trials,
        "rsin": rsin_blocked / trials,
    }


def average_blocking(points: Sequence[BlockingPoint]) -> Dict[str, float]:
    """Feasibility-weighted averages over a set of request sizes."""
    weight = sum(point.request_size * point.trials for point in points)
    if weight == 0:
        raise ConfigurationError("no blocking points to average")

    def fold(select) -> float:
        return sum(select(point) * point.request_size * point.trials
                   for point in points) / weight

    return {
        "rsin": fold(lambda point: point.rsin),
        "address_random": fold(lambda point: point.address_random),
        "address_sequential": fold(lambda point: point.address_sequential),
    }
