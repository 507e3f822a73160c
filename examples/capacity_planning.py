"""Capacity planning with the Table II advisor.

Given how much a resource costs relative to switch hardware and the
workload's mu_s / mu_n ratio, which network should you build?  The paper
answers with Table II; this example drives the executable version: the
advisor prices each candidate, filters by budget, and picks the cheapest
configuration within 15% of the best delay.

Run:  python examples/capacity_planning.py
"""

from repro import CostModel, SystemConfig, recommend, workload_at
from repro.analysis.selection import classify

CANDIDATES = [SystemConfig.parse(text) for text in (
    "16/16x1x1 SBUS/6",
    "16/1x16x16 OMEGA/2",
    "16/1x16x32 XBAR/1",
    "16/2x8x8 OMEGA/3",
    "16/2x8x8 XBAR/3",
)]


def advise(resource_unit_cost: float, mu_ratio: float,
           intensity: float) -> None:
    workload = workload_at(intensity, mu_ratio)
    model = CostModel(resource_unit_cost=resource_unit_cost,
                      bus_tap_cost=0.25)
    recommendation = recommend(CANDIDATES, workload, model)
    print(f"resource cost {resource_unit_cost:>5} x crosspoint, "
          f"mu_s/mu_n = {mu_ratio}, rho = {intensity}:")
    print(f"  -> build: {recommendation.winner.config}  "
          f"[{classify(recommendation.winner.config).value}]")
    for evaluation in recommendation.ranking:
        marker = "*" if evaluation is recommendation.winner else " "
        print(f"   {marker} {str(evaluation.config):<22} "
              f"cost {evaluation.cost:>7.1f}   d = {evaluation.mean_delay:8.4f}")
    print()


def main() -> None:
    print("Network selection (executable Table II)")
    print("=" * 55)
    # Resources dwarf the network: pick the best *single* network.
    advise(resource_unit_cost=64.0, mu_ratio=0.1, intensity=0.8)
    advise(resource_unit_cost=64.0, mu_ratio=4.0, intensity=1.05)
    # Comparable costs: partition and buy more resources.
    advise(resource_unit_cost=8.0, mu_ratio=0.1, intensity=0.8)
    # Networks dwarf resources: private buses, lots of resources.
    advise(resource_unit_cost=0.25, mu_ratio=0.1, intensity=0.8)
    print("(The advisor uses the analytic envelope by default; pass the")
    print(" simulation evaluator for production decisions -- see")
    print(" repro.experiments.figures.simulation_delay_evaluator.)")


if __name__ == "__main__":
    main()
