"""2-D mega-batch figure engine vs. per-point batched waves.

The mega-batch engine advances a whole figure curve — every (sweep point,
replication) pair — as one lockstep structure-of-arrays batch, where the
per-point batched path runs one 16-replication wave per point.  Rows never
interact, so the merged run costs ``max`` of the per-point outer-loop
iteration counts instead of their ``sum``; the Python-level dispatch that
dominates small waves amortizes over the whole curve's rows.

This benchmark takes the headline curve of the paper's Figure 7 (the
``16/1x16x16 XBAR/2`` configuration at mu_s/mu_n = 0.1) over the full
intensity grid, computes it both ways (identical ``spawn_seed``-derived
replication streams), and pins

* bit-identity of every (point, replication) delay between the two paths,
  and
* a points-times-replications-per-second speedup floor of 2x for the
  mega-batch over the per-point waves (best-of-three on both sides).

The same measurement runs on the figure's four 4x8 crossbar partitions
(``16/4x4x8 XBAR/1``), where each lockstep step re-offers a different
partition per row; it records its speedup without a floor.  A third case
takes the whole figure: Figure 7's four crossbar curves as one engine
(per-point configurations) against one engine per curve and against the
scalar engine, one ``simulate()`` run per (point, replication) row —
the same rows on both engines.  Bit-identity is asserted on both
comparisons and the speedups are recorded, again without a floor.

``REPRO_BENCH_SMOKE=1`` shrinks the grid and horizon so CI can execute
the benchmark end to end in seconds, and times the scalar engine on a
fixed sample of the rows; the speedup floor is asserted only at full
size (tiny runs are dominated by fixed setup costs).
"""

from __future__ import annotations

import math
import os
from time import perf_counter

from repro.analysis.approximations import saturation_intensity
from repro.analysis.sweep import (
    POINT_REPLICATIONS,
    workload_at,
)
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.sim.batched import batched_delays
from repro.sim.rng import spawn_seed

#: The headline multiple-shared-bus curve of Figure 7.
CONFIG = "16/1x16x16 XBAR/2"
#: The partitioned crossbar curve of the same figure.
PARTITIONED_CONFIG = "16/4x4x8 XBAR/1"
#: Every curve of Figure 7: one processor count, one crossbar kernel.
FIGURE_CONFIGS = ("16/1x16x32 XBAR/1", "16/1x16x16 XBAR/2",
                  "16/4x4x8 XBAR/1", "16/4x4x4 XBAR/2")
MU_RATIO = 0.1
MASTER_SEED = 1
SATURATION_GUARD = 0.98
WARMUP_FRACTION = 0.1

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
INTENSITY_STEP = 0.3 if SMOKE else 0.1
HORIZON = 800.0 if SMOKE else 8_000.0
SPEEDUP_FLOOR = 2.0
#: Smoke runs time every this-many-th row of the figure on the scalar
#: engine; full runs time every row.
SCALAR_SMOKE_STRIDE = 8


def _curve(triplet=CONFIG):
    """The live (intensity, workload, seeds) points of a fig7 curve."""
    config = SystemConfig.parse(triplet)
    limit = SATURATION_GUARD * saturation_intensity(config, MU_RATIO)
    points = []
    intensity = 0.1
    while intensity <= 1.2 + 1e-9:
        if intensity < limit:
            point_seed = spawn_seed(MASTER_SEED, triplet,
                                    round(intensity, 6))
            seeds = [spawn_seed(point_seed, "batched-replication", index)
                     for index in range(POINT_REPLICATIONS)]
            workload = workload_at(intensity, MU_RATIO,
                                   processors=config.processors)
            points.append((round(intensity, 6), workload, seeds))
        intensity += INTENSITY_STEP
    return config, points


def _run_megabatch(config, points):
    """The whole curve as one 2-D batch; (delays, seconds)."""
    per_replication = HORIZON / POINT_REPLICATIONS
    start = perf_counter()
    delays = batched_delays(
        config, [workload for _, workload, _ in points],
        horizon=per_replication,
        warmup=per_replication * WARMUP_FRACTION,
        seed_groups=[seeds for _, _, seeds in points])
    return delays, perf_counter() - start


def _run_per_point(config, points):
    """One batched 16-replication wave per point; (delays, seconds)."""
    per_replication = HORIZON / POINT_REPLICATIONS
    start = perf_counter()
    delays = [
        batched_delays(
            config, [workload], horizon=per_replication,
            warmup=per_replication * WARMUP_FRACTION, seed_groups=[seeds])[0]
        for _, workload, seeds in points
    ]
    return delays, perf_counter() - start


def _mismatches(mega, per_point):
    count = 0
    for mega_group, point_group in zip(mega, per_point):
        for left, right in zip(mega_group, point_group):
            if not (left == right
                    or (math.isnan(left) and math.isnan(right))):
                count += 1
    return count


def _measure(benchmark, triplet):
    """Time the mega-batch curve of ``triplet``; record both paths in the
    payload and check them bit for bit."""
    config, points = _curve(triplet)
    per_point_delays, per_point_time = _run_per_point(config, points)
    mega_delays, mega_time = benchmark.pedantic(
        lambda: _run_megabatch(config, points), rounds=1, iterations=1)
    grid_size = len(points) * POINT_REPLICATIONS
    speedup = per_point_time / mega_time
    benchmark.extra_info["config"] = triplet
    benchmark.extra_info["points"] = len(points)
    benchmark.extra_info["replications_per_point"] = (
        POINT_REPLICATIONS)
    benchmark.extra_info["horizon"] = HORIZON
    benchmark.extra_info["per_point_s"] = round(per_point_time, 6)
    benchmark.extra_info["megabatch_s"] = round(mega_time, 6)
    benchmark.extra_info["points_x_replications_per_s"] = round(
        grid_size / mega_time, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["agreement"] = _mismatches(mega_delays,
                                                    per_point_delays) == 0
    benchmark.extra_info["smoke"] = SMOKE
    print(f"\n{len(points)} points x {POINT_REPLICATIONS} "
          f"replications of {triplet}: per-point {per_point_time:.2f}s, "
          f"mega-batch {mega_time:.2f}s, speedup {speedup:.2f}x")
    assert _mismatches(mega_delays, per_point_delays) == 0, (
        f"mega-batch {triplet} delays diverged from the per-point batched "
        "engine — the lockstep invariant is broken")


def test_megabatch_figure_curve(benchmark):
    """Measure the mega-batch curve; record both paths in the payload."""
    _measure(benchmark, CONFIG)


def test_megabatch_partitioned_curve(benchmark):
    """The same measurement on the four 4x8 crossbar partitions."""
    _measure(benchmark, PARTITIONED_CONFIG)


def test_megabatch_figure_speedup_floor():
    """The mega-batch must clear the per-point waves by >= 2x.

    Best-of-three on both sides to damp scheduler noise.  Skipped in
    smoke mode: a tiny grid leaves nothing for the batch width to
    amortize.
    """
    if SMOKE:
        import pytest

        pytest.skip("speedup floor asserted at full grid size only")
    config, points = _curve()
    per_point_time = min(_run_per_point(config, points)[1]
                         for _ in range(3))
    mega_time = min(_run_megabatch(config, points)[1] for _ in range(3))
    speedup = per_point_time / mega_time
    print(f"\nspeedup: {speedup:.2f}x ({per_point_time:.2f}s per-point vs "
          f"{mega_time:.2f}s mega-batch)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"mega-batch engine regressed: only {speedup:.2f}x over per-point "
        f"batched waves (floor {SPEEDUP_FLOOR}x)")


def _run_curves(curves, merged):
    """Whole-figure delays, one engine or one per curve; (delays, s)."""
    per_replication = HORIZON / POINT_REPLICATIONS
    window = dict(horizon=per_replication,
                  warmup=per_replication * WARMUP_FRACTION)
    start = perf_counter()
    if merged:
        delays = batched_delays(
            [config for config, points in curves for _ in points],
            [workload for _, points in curves for _, workload, _ in points],
            seed_groups=[seeds for _, points in curves
                         for _, _, seeds in points], **window)
    else:
        delays = [group for config, points in curves
                  for group in batched_delays(
                      config, [workload for _, workload, _ in points],
                      seed_groups=[seeds for _, _, seeds in points],
                      **window)]
    return delays, perf_counter() - start


def _run_scalar(rows):
    """One scalar ``simulate()`` run per ``(config, workload, seed)`` row;
    (delays, seconds)."""
    per_replication = HORIZON / POINT_REPLICATIONS
    start = perf_counter()
    delays = [simulate(config, workload, horizon=per_replication,
                       warmup=per_replication * WARMUP_FRACTION,
                       seed=seed).mean_queueing_delay
              for config, workload, seed in rows]
    return delays, perf_counter() - start


def test_megabatch_whole_figure(benchmark):
    """Figure 7's four curves in one engine against one engine each and
    against one scalar run per row."""
    curves = [_curve(triplet) for triplet in FIGURE_CONFIGS]
    per_curve_delays, per_curve_time = _run_curves(curves, merged=False)
    merged_delays, merged_time = benchmark.pedantic(
        lambda: _run_curves(curves, merged=True), rounds=1, iterations=1)
    rows = [(config, workload, seed) for config, points in curves
            for _, workload, seeds in points for seed in seeds]
    sample = range(0, len(rows), SCALAR_SMOKE_STRIDE if SMOKE else 1)
    scalar_delays, scalar_time = _run_scalar([rows[i] for i in sample])
    merged_rows = [delay for group in merged_delays for delay in group]
    scalar_mismatches = _mismatches(
        [scalar_delays], [[merged_rows[i] for i in sample]])
    speedup = per_curve_time / merged_time
    # Per-row rates, so a sampled smoke run compares like with like.
    speedup_over_scalar = ((scalar_time / len(sample))
                           / (merged_time / len(rows)))
    benchmark.extra_info["configs"] = list(FIGURE_CONFIGS)
    benchmark.extra_info["rows"] = len(rows)
    benchmark.extra_info["horizon"] = HORIZON
    benchmark.extra_info["per_curve_s"] = round(per_curve_time, 6)
    benchmark.extra_info["merged_s"] = round(merged_time, 6)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["scalar_rows"] = len(sample)
    benchmark.extra_info["scalar_s"] = round(scalar_time, 6)
    benchmark.extra_info["speedup_over_scalar"] = round(
        speedup_over_scalar, 3)
    benchmark.extra_info["agreement"] = _mismatches(
        merged_delays, per_curve_delays) == 0 and scalar_mismatches == 0
    benchmark.extra_info["smoke"] = SMOKE
    print(f"\nfig7, {len(rows)} rows: one engine per curve "
          f"{per_curve_time:.2f}s, one engine {merged_time:.2f}s, "
          f"speedup {speedup:.2f}x; scalar {scalar_time:.2f}s over "
          f"{len(sample)} rows, {speedup_over_scalar:.2f}x per row")
    assert _mismatches(merged_delays, per_curve_delays) == 0, (
        "the whole-figure engine diverged from the per-curve engines — "
        "the lockstep invariant is broken")
    assert scalar_mismatches == 0, (
        "the whole-figure engine diverged from the scalar engine — the "
        "lockstep invariant is broken")
