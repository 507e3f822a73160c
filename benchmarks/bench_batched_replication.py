"""Batched lockstep replication engine vs. scalar per-replication runs.

PR 5 added :mod:`repro.sim.batched`: R replications of one sweep point
advanced in lockstep over structure-of-arrays state, with holding times
gathered from vectorized variate tables and dispatch computed by the
rank-paired batch matcher.  This benchmark runs the ISSUE's acceptance
workload — the ``16/1x16x8 XBAR/2`` configuration (16 processors sharing
one 16x8 crossbar, two resources per port) at a traffic intensity of 80%
of capacity, R = 64 replications — both ways and pins

* bit-identity of per-replication mean delays (spot-checked against a
  scalar prefix here; the full randomized-grid equivalence test lives in
  ``tests/test_sim_batched.py``), and
* a replications-per-second speedup floor of 3x (measured ~3.5-4x).

``REPRO_BENCH_SMOKE=1`` shrinks the horizon and replication count so CI
can execute the benchmark end to end in seconds; the speedup floor is
asserted only at full size (tiny runs are dominated by per-iteration
numpy dispatch overhead the batch width exists to amortize).
"""

from __future__ import annotations

import math
import os
from time import perf_counter

from repro.config import SystemConfig
from repro.core.system import simulate
from repro.sim.batched import batched_delays
from repro.workload.arrivals import Workload

#: The acceptance workload: heavy traffic (80% of the 1.6 tasks/time
#: capacity of 8 ports x 2 resources x mu_s = 0.1) but safely stable.
CONFIG = "16/1x16x8 XBAR/2"
ARRIVAL_RATE = 0.08
TRANSMISSION_RATE = 1.0
SERVICE_RATE = 0.1
BASE_SEED = 100

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
REPLICATIONS = 8 if SMOKE else 64
HORIZON = 400.0 if SMOKE else 2_000.0
WARMUP = HORIZON * 0.1
#: Scalar replications actually run to estimate the per-replication cost
#: (running all 64 would quintuple the benchmark's wall time for no
#: extra information — scalar replications are i.i.d. in cost).
SCALAR_SAMPLE = 4 if SMOKE else 8
SPEEDUP_FLOOR = 3.0


def _workload() -> Workload:
    return Workload(arrival_rate=ARRIVAL_RATE,
                    transmission_rate=TRANSMISSION_RATE,
                    service_rate=SERVICE_RATE)


def _seeds():
    return list(range(BASE_SEED, BASE_SEED + REPLICATIONS))


def _run_batched():
    """All replications in one lockstep wave; (delays, seconds)."""
    start = perf_counter()
    [delays] = batched_delays(CONFIG, [_workload()], horizon=HORIZON,
                              warmup=WARMUP, seed_groups=[_seeds()])
    return delays, perf_counter() - start


def _run_scalar_sample():
    """A scalar-prefix sample; (delays, estimated seconds for all R)."""
    config = SystemConfig.parse(CONFIG)
    workload = _workload()
    start = perf_counter()
    delays = [
        simulate(config, workload, horizon=HORIZON, warmup=WARMUP,
                 seed=seed).mean_queueing_delay
        for seed in _seeds()[:SCALAR_SAMPLE]
    ]
    elapsed = perf_counter() - start
    return delays, elapsed * REPLICATIONS / SCALAR_SAMPLE


def test_batched_replication_wave(benchmark):
    """Measure the lockstep wave; record both engines in the payload."""
    scalar_delays, scalar_time = _run_scalar_sample()
    batched_delays, batched_time = benchmark.pedantic(
        _run_batched, rounds=1, iterations=1)
    speedup = scalar_time / batched_time
    mismatches = sum(
        1 for scalar, batched in zip(scalar_delays, batched_delays)
        if not (scalar == batched
                or (math.isnan(scalar) and math.isnan(batched))))
    benchmark.extra_info["config"] = CONFIG
    benchmark.extra_info["replications"] = REPLICATIONS
    benchmark.extra_info["horizon"] = HORIZON
    benchmark.extra_info["scalar_estimate_s"] = round(scalar_time, 6)
    benchmark.extra_info["batched_wave_s"] = round(batched_time, 6)
    benchmark.extra_info["replications_per_s"] = round(
        REPLICATIONS / batched_time, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["smoke"] = SMOKE
    print(f"\n{REPLICATIONS} replications of {CONFIG}: scalar "
          f"{scalar_time:.2f}s (est), batched {batched_time:.2f}s, "
          f"speedup {speedup:.2f}x")
    assert mismatches == 0, (
        f"{mismatches}/{SCALAR_SAMPLE} replications diverged from the "
        f"scalar engine — the lockstep invariant is broken")


def test_batched_replication_speedup_floor():
    """The lockstep wave must clear the scalar engine by >= 3x.

    Best-of-three on both sides to damp scheduler noise; measured margin
    at full size is ~3.5-4x.  Skipped in smoke mode: at a 400-time-unit
    horizon the wave is dominated by numpy dispatch per iteration rather
    than the per-event work the batch width amortizes.
    """
    if SMOKE:
        import pytest

        pytest.skip("speedup floor asserted at full replication size only")
    scalar_time = min(_run_scalar_sample()[1] for _ in range(3))
    batched_time = min(_run_batched()[1] for _ in range(3))
    speedup = scalar_time / batched_time
    print(f"\nspeedup: {speedup:.2f}x ({scalar_time:.2f}s scalar est vs "
          f"{batched_time:.2f}s batched)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched engine regressed: only {speedup:.2f}x over scalar "
        f"replications (floor {SPEEDUP_FLOOR}x)")
