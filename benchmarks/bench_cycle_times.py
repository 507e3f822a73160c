"""E13 — scheduling-overhead scaling: distributed versus centralized.

Sections IV and V derive the asymptotics this benchmark regenerates as a
table over N:

* distributed crossbar: one request cycle of 4 (p + m) gate delays serves
  *all* requests in parallel — O(N);
* centralized crossbar (priority circuit): O(N log N) for N requests;
* distributed multistage: O(log N), independent of the number of
  requesting processors;
* centralized multistage with blocking retries: O(N^2 log N) worst case,
  superlinear in practice.
"""

import math
import random

from repro.core import (
    centralized_multistage,
    distributed_crossbar_delay,
    distributed_multistage_delay,
    priority_circuit_crossbar,
)
from repro.experiments import cycle_time_comparison, format_rows
from repro.networks import OmegaTopology

SIZES = (4, 8, 16, 32, 64, 128)


def test_cycle_time_table(once):
    rows = once(cycle_time_comparison, SIZES)
    print()
    print(format_rows(rows, columns=["N", "distributed_crossbar",
                                     "centralized_crossbar",
                                     "distributed_multistage",
                                     "centralized_multistage"],
                      title="Scheduling overhead (gate delays), N requests"))
    assert [row["N"] for row in rows] == list(SIZES)


def test_distributed_crossbar_wins_at_scale(once):
    def gap(n):
        distributed = distributed_crossbar_delay(n, n)
        centralized = priority_circuit_crossbar(
            list(range(n)), list(range(n)), n, n).delay_units
        return centralized / distributed

    small, large = once(lambda: (gap(8), gap(128)))
    assert large > small
    assert large > 2.0


def test_distributed_multistage_is_logarithmic(once):
    values = once(lambda: [distributed_multistage_delay(2 ** k)
                           for k in range(2, 9)])
    # Perfectly linear in log2 N -> constant increments.
    increments = {b - a for a, b in zip(values, values[1:])}
    assert len(increments) == 1


def test_centralized_multistage_superlinear(once):
    def cost(n):
        return centralized_multistage(
            OmegaTopology(n), list(range(n)), list(range(n)),
            rng=random.Random(5)).delay_units

    small, large = once(lambda: (cost(8), cost(64)))
    # 8x growth in N must cost much more than 8x (blocking retries).
    assert large / small > 8 * math.log2(64) / math.log2(8)
