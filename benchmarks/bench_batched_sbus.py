"""Batched single-bus replications vs. the scalar event loop.

The widened batchability gate runs shared-bus systems through the
lockstep engine: a shared bus is a one-column crossbar, so one call of
the crossbar matcher
(:func:`repro.networks.batched_crossbar.match_pairs_batch`) grants a
status broadcast over all replications at once, instead of one Python
retry loop per replication per broadcast.

This benchmark takes the fully contended bus — sixteen processors
sharing one bus with two resources — at 80% of its saturation
intensity, computes a 64-replication wave both ways (identical seeds,
so the batched delays must equal the scalar engine's bit for bit on the
sampled prefix), and pins a replications-per-second speedup floor of 2x
for the batched path (best-of-three on both sides).

``REPRO_BENCH_SMOKE=1`` shrinks the wave and horizon so CI can execute
the benchmark end to end in seconds; the speedup floor is asserted only
at full size (tiny runs are dominated by fixed setup costs).
"""

from __future__ import annotations

import math
import os
from time import perf_counter

from repro.analysis.approximations import saturation_intensity
from repro.analysis.sweep import workload_at
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.sim.batched import batched_delays
from repro.sim.rng import spawn_seed

#: Sixteen processors contending for one shared bus, two resources.
CONFIG = "16/1x1x1 SBUS/2"
MU_RATIO = 0.1
INTENSITY_FRACTION = 0.8
MASTER_SEED = 1
WARMUP_FRACTION = 0.1

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
REPLICATIONS = 8 if SMOKE else 64
HORIZON = 400.0 if SMOKE else 2_000.0
#: Scalar replications actually run to estimate the per-replication cost
#: (scalar replications are i.i.d. in cost, so a prefix sample suffices).
SCALAR_SAMPLE = 4 if SMOKE else 8
SPEEDUP_FLOOR = 2.0


def _setup():
    config = SystemConfig.parse(CONFIG)
    intensity = INTENSITY_FRACTION * saturation_intensity(config, MU_RATIO)
    workload = workload_at(intensity, MU_RATIO,
                           processors=config.processors)
    seeds = [spawn_seed(MASTER_SEED, "bench-sbus", index)
             for index in range(REPLICATIONS)]
    return config, workload, seeds


def _run_batched(config, workload, seeds):
    """One lockstep wave over every replication; (delays, seconds)."""
    start = perf_counter()
    [delays] = batched_delays(
        config, [workload], horizon=HORIZON,
        warmup=HORIZON * WARMUP_FRACTION, seed_groups=[seeds])
    return delays, perf_counter() - start


def _run_scalar_sample(config, workload, seeds):
    """A scalar-prefix sample; (delays, estimated seconds for all R)."""
    start = perf_counter()
    delays = [simulate(config, workload, horizon=HORIZON,
                       warmup=HORIZON * WARMUP_FRACTION,
                       seed=seed).mean_queueing_delay
              for seed in seeds[:SCALAR_SAMPLE]]
    elapsed = perf_counter() - start
    return delays, elapsed * REPLICATIONS / SCALAR_SAMPLE


def _mismatches(batched, scalar):
    return sum(
        0 if left == right or (math.isnan(left) and math.isnan(right))
        else 1
        for left, right in zip(batched, scalar))


def test_batched_sbus_replications(benchmark):
    """Measure the batched bus wave; record both paths in the payload."""
    config, workload, seeds = _setup()
    scalar_delays, scalar_time = _run_scalar_sample(config, workload, seeds)
    batched_delays, batched_time = benchmark.pedantic(
        lambda: _run_batched(config, workload, seeds),
        rounds=1, iterations=1)
    speedup = scalar_time / batched_time
    benchmark.extra_info["config"] = CONFIG
    benchmark.extra_info["replications"] = REPLICATIONS
    benchmark.extra_info["horizon"] = HORIZON
    benchmark.extra_info["scalar_estimate_s"] = round(scalar_time, 6)
    benchmark.extra_info["batched_s"] = round(batched_time, 6)
    benchmark.extra_info["replications_per_s"] = round(
        REPLICATIONS / batched_time, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["agreement"] = _mismatches(batched_delays,
                                                    scalar_delays) == 0
    benchmark.extra_info["smoke"] = SMOKE
    print(f"\n{REPLICATIONS} replications of {CONFIG}: scalar "
          f"{scalar_time:.2f}s (est), batched {batched_time:.2f}s, "
          f"speedup {speedup:.2f}x")
    assert _mismatches(batched_delays, scalar_delays) == 0, (
        "batched single-bus delays diverged from the scalar engine — "
        "the lockstep invariant is broken")


def test_batched_sbus_speedup_floor():
    """The batched bus wave must clear the scalar loop by >= 2x.

    Best-of-three on both sides to damp scheduler noise; measured
    margin at full size is ~2.5x.  Skipped in smoke mode: a tiny wave
    leaves nothing for the batch width to amortize.
    """
    if SMOKE:
        import pytest

        pytest.skip("speedup floor asserted at full wave size only")
    config, workload, seeds = _setup()
    scalar_time = min(_run_scalar_sample(config, workload, seeds)[1]
                      for _ in range(3))
    batched_time = min(_run_batched(config, workload, seeds)[1]
                       for _ in range(3))
    speedup = scalar_time / batched_time
    print(f"\nspeedup: {speedup:.2f}x ({scalar_time:.2f}s scalar est vs "
          f"{batched_time:.2f}s batched)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched bus wave regressed: only {speedup:.2f}x over the "
        f"scalar loop (floor {SPEEDUP_FLOOR}x)")
