"""Network selection: Table II as an executable decision procedure.

The paper closes with a selection guide (Table II):

    =====================  ===========  =========================================
    relative costs         mu_s / mu_n  network to use
    =====================  ===========  =========================================
    net << resources       small        single multistage network
    net << resources       large        single crossbar network
    net ~= resources       small        many small multistage nets, more resources
    net ~= resources       large        many small crossbar nets, more resources
    net >> resources       all          private buses with many resources
    =====================  ===========  =========================================

Two entry points:

* :func:`qualitative_recommendation` — the literal table;
* :func:`recommend` — a quantitative advisor: given candidate
  configurations, a cost model and a load point, it prices every candidate,
  filters by budget, and returns the feasible candidate with the lowest
  estimated delay.  The Table II benchmark (E9) checks that the advisor's
  winners fall in the classes the paper tabulates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.approximations import (
    crossbar_envelope_delay,
    sbus_delay,
)
from repro.config import SystemConfig
from repro.errors import AnalysisError, ConfigurationError, UnstableSystemError
from repro.networks.shuffle import log2_exact
from repro.workload.arrivals import Workload


class CostRegime(enum.Enum):
    """Relative cost of the network against the resource pool."""

    NETWORK_CHEAP = "network << resources"
    COMPARABLE = "network ~= resources"
    NETWORK_EXPENSIVE = "network >> resources"


class NetworkClass(enum.Enum):
    """The qualitative configuration classes Table II speaks in."""

    SINGLE_MULTISTAGE = "single multistage network"
    SINGLE_CROSSBAR = "single crossbar network"
    PARTITIONED_MULTISTAGE = "many small multistage networks + more resources"
    PARTITIONED_CROSSBAR = "many small crossbar networks + more resources"
    PRIVATE_BUS = "private buses with many resources"


#: Ratio below/at which the multistage column of Table II applies.
SMALL_RATIO_THRESHOLD = 1.0


def classify(config: SystemConfig) -> NetworkClass:
    """The Table II class a concrete configuration belongs to."""
    if config.network_type == "SBUS":
        return NetworkClass.PRIVATE_BUS
    partitioned = config.num_networks > 1
    if config.network_type == "XBAR":
        return (NetworkClass.PARTITIONED_CROSSBAR if partitioned
                else NetworkClass.SINGLE_CROSSBAR)
    return (NetworkClass.PARTITIONED_MULTISTAGE if partitioned
            else NetworkClass.SINGLE_MULTISTAGE)


def qualitative_recommendation(regime: CostRegime, mu_ratio: float) -> NetworkClass:
    """The literal Table II lookup."""
    if mu_ratio <= 0:
        raise ConfigurationError(f"mu ratio must be positive, got {mu_ratio}")
    small = mu_ratio <= SMALL_RATIO_THRESHOLD
    if regime is CostRegime.NETWORK_EXPENSIVE:
        return NetworkClass.PRIVATE_BUS
    if regime is CostRegime.NETWORK_CHEAP:
        return (NetworkClass.SINGLE_MULTISTAGE if small
                else NetworkClass.SINGLE_CROSSBAR)
    return (NetworkClass.PARTITIONED_MULTISTAGE if small
            else NetworkClass.PARTITIONED_CROSSBAR)


@dataclass(frozen=True)
class CostModel:
    """Hardware cost accounting in crosspoint-equivalents.

    * a crossbar costs one unit per crosspoint (``j * k``);
    * a 2x2 interchange box is a small crossbar plus control
      (``box_cost`` units, default 4);
    * a bus costs one tap per attached processor or resource;
    * a resource costs ``resource_unit_cost`` units — this is the knob that
      moves between the three regimes of Table II.
    """

    resource_unit_cost: float
    box_cost: float = 4.0
    bus_tap_cost: float = 1.0

    def __post_init__(self) -> None:
        for name in ("resource_unit_cost", "box_cost", "bus_tap_cost"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value}")

    def network_cost(self, config: SystemConfig) -> float:
        """Cost of the interconnect hardware alone."""
        kind = config.network_type
        if kind == "SBUS":
            taps = config.processors_per_network + (
                0 if config.resources_per_port == math.inf
                else config.resources_per_port)
            return config.num_networks * self.bus_tap_cost * taps
        if kind == "XBAR":
            return (config.num_networks * config.inputs_per_network
                    * config.outputs_per_network)
        # Multistage: (N / 2) log2 N boxes per network.
        size = config.inputs_per_network
        boxes = (size // 2) * log2_exact(size) if size > 1 else 1
        return config.num_networks * self.box_cost * boxes

    def resource_cost(self, config: SystemConfig) -> float:
        """Cost of the resource pool."""
        if config.total_resources == math.inf:
            return math.inf
        return self.resource_unit_cost * config.total_resources

    def total_cost(self, config: SystemConfig) -> float:
        """Interconnect plus resources."""
        return self.network_cost(config) + self.resource_cost(config)


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate's price and performance."""

    config: SystemConfig
    cost: float
    mean_delay: float


@dataclass(frozen=True)
class Recommendation:
    """Advisor output: the winner and the full ranking."""

    winner: CandidateEvaluation
    ranking: Tuple[CandidateEvaluation, ...]
    budget: float


DelayEvaluator = Callable[[SystemConfig, Workload], float]


def analytic_delay_evaluator(config: SystemConfig, workload: Workload) -> float:
    """Default evaluator: exact for buses, envelope for switched fabrics.

    Multistage fabrics are priced with the crossbar envelope — optimistic
    when the network is the bottleneck, which the advisor compensates for
    by the cost side (a multistage network is cheaper than a crossbar, so
    when delays tie the cheaper fabric wins; benchmarks E6/E7 quantify the
    residual difference by simulation).
    """
    if config.network_type == "SBUS":
        return sbus_delay(config, workload).mean_delay
    return crossbar_envelope_delay(config, workload).mean_delay


def evaluate_candidates(candidates: Sequence[SystemConfig], workload: Workload,
                        cost_model: CostModel,
                        evaluator: Optional[DelayEvaluator] = None,
                        ) -> List[CandidateEvaluation]:
    """Price and measure every candidate; unstable ones get infinite delay."""
    evaluator = evaluator or analytic_delay_evaluator
    evaluations = []
    for config in candidates:
        try:
            delay = evaluator(config, workload)
        except UnstableSystemError:
            delay = math.inf
        evaluations.append(CandidateEvaluation(
            config=config, cost=cost_model.total_cost(config), mean_delay=delay))
    return evaluations


def recommend(candidates: Sequence[SystemConfig], workload: Workload,
              cost_model: CostModel, budget_factor: float = 1.4,
              tie_tolerance: float = 0.15,
              evaluator: Optional[DelayEvaluator] = None) -> Recommendation:
    """Pick the best candidate within a budget, breaking delay ties by cost.

    The budget is ``budget_factor`` times the cheapest *stable* candidate:
    the advisor will pay somewhat more for performance, but not arbitrarily
    more — which is how the cost side of Table II bites.  Candidates whose
    delay is within ``tie_tolerance`` (relative) of the best are considered
    performance-equivalent, and the cheapest of them wins.  The default of
    15% encodes the paper's own trade: a multistage network that is only
    "slightly" slower than a crossbar is preferred because it is much
    cheaper; a crossbar wins only when it is *decisively* faster (the
    large-``mu_s/mu_n`` regime where multistage blocking blows up).
    """
    if not candidates:
        raise AnalysisError("no candidate configurations supplied")
    if tie_tolerance < 0:
        raise AnalysisError(f"tie tolerance must be non-negative: {tie_tolerance}")
    evaluations = evaluate_candidates(candidates, workload, cost_model, evaluator)
    stable = [e for e in evaluations if math.isfinite(e.mean_delay)]
    if not stable:
        raise UnstableSystemError(
            math.inf, "every candidate saturates at this load")
    budget = budget_factor * min(e.cost for e in stable)
    affordable = [e for e in stable if e.cost <= budget]
    if not affordable:
        affordable = [min(stable, key=lambda e: e.cost)]
    best_delay = min(e.mean_delay for e in affordable)
    tied = [e for e in affordable
            if e.mean_delay <= best_delay * (1.0 + tie_tolerance)]
    winner = min(tied, key=lambda e: (e.cost, e.mean_delay))
    ranking = tuple(sorted(affordable, key=lambda e: (e.mean_delay, e.cost)))
    return Recommendation(winner=winner, ranking=ranking, budget=budget)
