"""Tests for the lockstep batched engine.

The engine's single load-bearing property is *bit-identity*: replication k
of a batched run must equal the scalar engine run with the same seed, to
the last bit of the mean-delay estimate.  Everything else — the vectorized
stream tables, the sweep-point integration, the CRN comparison — leans on
that invariant, so these tests pin it over a randomized configuration grid
and then check the surrounding plumbing.
"""

import math
import random

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.system import simulate
from repro.errors import ConfigurationError
from repro.faults.models import CellFault, FaultConfig, FaultSchedule
from repro.sim import (
    MegaBatchEngine,
    VariateTable,
    batched_delays,
    batched_unsupported_reason,
    spawn_seed,
    uniform_block_source,
)
from repro.sim.rng import RngStream
from repro.workload.arrivals import Workload, sample_time


def _point_delays(config, workload, seeds, horizon, warmup):
    """One point's replications: a one-point call of the front door."""
    return batched_delays(config, [workload], horizon=horizon,
                          warmup=warmup, seed_groups=[seeds])[0]


def _supported(config, workload, **kwargs):
    return batched_unsupported_reason(config, workload, **kwargs) is None


def _random_cases(count, master_seed=7):
    """Randomized crossbar (config, workload) grid across the gate."""
    rng = random.Random(master_seed)
    cases = []
    for _ in range(count):
        processors = rng.choice([2, 4, 8, 12, 16])
        partitions = rng.choice([1, 2, 4, 8])
        if processors % partitions:
            partitions = 1
        buses = rng.choice([1, 2, 4, 8])
        resources = rng.choice([1, 2, 3])
        rho = rng.choice([0.02, 0.05, 0.08, 0.12])
        distribution = rng.choice(["exponential", "hyperexponential"])
        config = SystemConfig.parse(
            f"{processors}/{partitions}x{processors // partitions}x{buses} "
            f"XBAR/{resources}")
        workload = Workload(rho, 1.0, 0.1,
                            service_distribution=distribution)
        cases.append((config, workload))
    return cases


def _random_bus_cases(count, master_seed=13):
    """Randomized single-bus grid: shared and private buses, finite pools."""
    rng = random.Random(master_seed)
    cases = []
    for _ in range(count):
        processors = rng.choice([2, 4, 8, 12, 16])
        partitions = rng.choice([1, 2, 4, processors])
        if processors % partitions:
            partitions = 1
        resources = rng.choice([1, 2, 3])
        rho = rng.choice([0.02, 0.05, 0.08, 0.12])
        distribution = rng.choice(["exponential", "hyperexponential"])
        config = SystemConfig.parse(
            f"{processors}/{partitions}x1x1 SBUS/{resources}")
        workload = Workload(rho, 1.0, 0.1,
                            service_distribution=distribution)
        cases.append((config, workload))
    return cases


def _random_multistage_cases(count, master_seed=17):
    """Randomized multistage grid spanning all three wirings."""
    rng = random.Random(master_seed)
    cases = []
    for _ in range(count):
        partitions, size = rng.choice(
            [(1, 4), (1, 8), (1, 16), (2, 4), (2, 8), (4, 4), (8, 2)])
        kind = rng.choice(["OMEGA", "CUBE", "BASELINE"])
        resources = rng.choice([1, 2, 3])
        rho = rng.choice([0.02, 0.05, 0.08, 0.12])
        distribution = rng.choice(["exponential", "hyperexponential"])
        config = SystemConfig.parse(
            f"{partitions * size}/{partitions}x{size}x{size} "
            f"{kind}/{resources}")
        workload = Workload(rho, 1.0, 0.1,
                            service_distribution=distribution)
        cases.append((config, workload))
    return cases


#: The partitioned fabrics of Figs. 7/8 and 12/13.  A lockstep step
#: re-offers a different partition in each row, and one kernel call
#: dispatches them all.
FIGURE_PARTITIONED_CONFIGS = ("16/4x4x8 XBAR/1", "16/4x4x4 XBAR/2",
                              "16/8x2x2 OMEGA/2", "16/4x4x4 OMEGA/2")


def _figure_partitioned_cases():
    return [(SystemConfig.parse(text), Workload(0.1, 1.0, 0.1))
            for text in FIGURE_PARTITIONED_CONFIGS]


def _check_lockstep_grid(cases, seed_base):
    """Per-replication delays must equal scalar ``simulate`` bit for bit."""
    for index, (config, workload) in enumerate(cases):
        seeds = [seed_base + index * 10 + k for k in range(4)]
        horizon, warmup = 400.0, 50.0
        batched = _point_delays(config, workload, seeds, horizon, warmup)
        for k, seed in enumerate(seeds):
            scalar = simulate(config, workload, horizon=horizon,
                              warmup=warmup,
                              seed=seed).mean_queueing_delay
            if math.isnan(scalar):
                assert math.isnan(batched[k])
            else:
                assert batched[k] == scalar, (
                    f"replication {k} of {config} diverged")


class TestLockstepBitIdentity:
    def test_randomized_grid_matches_scalar_engine(self):
        _check_lockstep_grid(_random_cases(8), seed_base=2000)

    def test_randomized_bus_grid_matches_scalar_engine(self):
        """The widened gate: batched single-bus grants match scalar."""
        _check_lockstep_grid(_random_bus_cases(8), seed_base=2100)

    def test_randomized_multistage_grid_matches_scalar_engine(self):
        """The widened gate: plane-routed Omega/cube/baseline match scalar."""
        _check_lockstep_grid(_random_multistage_cases(8), seed_base=2200)

    def test_figure_partitioned_fabrics_match_scalar_engine(self):
        """4- and 8-partition figure fabrics, one dispatch per step."""
        _check_lockstep_grid(_figure_partitioned_cases(), seed_base=2300)

    def test_result_carries_counts_and_window(self):
        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workload = Workload(0.05, 1.0, 0.1)
        engine = MegaBatchEngine(config, [workload], seed_groups=[[1, 2, 3]])
        result = engine.run(horizon=500.0, warmup=50.0)
        assert result.seed_groups == ((1, 2, 3),)
        assert len(result.mean_delays[0]) == 3
        assert all(count >= 0 for count in result.delay_counts[0])
        assert all(done > 0 for done in result.completed[0])
        assert result.simulated_time == 500.0
        assert result.measurement_start == 50.0
        with pytest.raises(ConfigurationError):
            engine.run(horizon=500.0, warmup=50.0)  # single-shot, like scalar

    def test_scope_gate(self):
        workload = Workload(0.05, 1.0, 0.1)
        # Every fabric family in the grammar has a dispatch kernel now;
        # what gates a model is a *property*, never the fabric alone.
        assert _supported("16/1x16x8 XBAR/2", workload)
        assert _supported("16/1x16x16 OMEGA/2", workload)
        assert _supported("16/4x4x4 CUBE/1", workload)
        assert _supported("8/1x8x8 BASELINE/2", workload)
        assert _supported("16/16x1x1 SBUS/2", workload)
        assert not _supported("16/16x1x1 SBUS/inf", workload)
        assert not _supported("16/1x16x8 XBAR/2", workload,
                              arbitration="random")
        # Deterministic *service* is in scope (ties stay measure-zero);
        # deterministic transmission or interarrival lattices timestamps
        # and stays gated.
        deterministic = Workload(0.05, 1.0, 0.1,
                                 service_distribution="deterministic")
        assert _supported("16/1x16x8 XBAR/2", deterministic)
        lattice = Workload(0.05, 1.0, 0.1,
                           transmission_distribution="deterministic")
        assert not _supported("16/1x16x8 XBAR/2", lattice)
        with pytest.raises(ConfigurationError):
            MegaBatchEngine("16/16x1x1 SBUS/inf", [workload],
                            seed_groups=[[1]])
        with pytest.raises(ConfigurationError):
            MegaBatchEngine("16/1x16x8 XBAR/2", [workload], seed_groups=[[]])


def _assert_same_delay(left, right, context=""):
    if math.isnan(left):
        assert math.isnan(right), context
    else:
        assert left == right, context


def _check_megabatch_grid(cases, seed_base):
    """One call per curve == one call per point == scalar, bit for bit.

    Each case becomes a 3-point "curve" (three loads of the same
    configuration and distributions) with 3 replications per point —
    the full (point, replication) grid is checked against the same points
    run one at a time and against the scalar engine.
    """
    for index, (config, workload) in enumerate(cases):
        rhos = [workload.arrival_rate * scale
                for scale in (0.5, 1.0, 1.5)]
        workloads = [Workload(rho, 1.0, 0.1,
                              service_distribution=
                              workload.service_distribution)
                     for rho in rhos]
        groups = [[seed_base + index * 100 + point * 10 + k
                   for k in range(3)]
                  for point in range(len(workloads))]
        horizon, warmup = 400.0, 50.0
        mega = batched_delays(config, workloads, horizon=horizon,
                              warmup=warmup, seed_groups=groups)
        for point, point_workload in enumerate(workloads):
            per_point = _point_delays(config, point_workload, groups[point],
                                      horizon, warmup)
            for k, seed in enumerate(groups[point]):
                _assert_same_delay(per_point[k], mega[point][k],
                                   f"case {index} point {point} rep {k}")
                scalar = simulate(config, point_workload, horizon=horizon,
                                  warmup=warmup,
                                  seed=seed).mean_queueing_delay
                _assert_same_delay(scalar, mega[point][k],
                                   f"case {index} point {point} rep {k}")


class TestMegaBatch:
    def test_randomized_grid_matches_per_point_and_scalar(self):
        _check_megabatch_grid(_random_cases(4, master_seed=11),
                              seed_base=5000)

    def test_randomized_bus_grid_matches_per_point_and_scalar(self):
        """The widened gate: whole single-bus curves in one mega-batch."""
        _check_megabatch_grid(_random_bus_cases(3, master_seed=19),
                              seed_base=6000)

    def test_randomized_multistage_grid_matches_per_point_and_scalar(self):
        """The widened gate: whole multistage curves in one mega-batch."""
        _check_megabatch_grid(_random_multistage_cases(3, master_seed=23),
                              seed_base=7000)

    def test_figure_partitioned_curves_match_per_point_and_scalar(self):
        """Whole 4- and 8-partition figure curves in one mega-batch."""
        _check_megabatch_grid(_figure_partitioned_cases(), seed_base=8000)

    def test_deterministic_service_matches_scalar(self):
        """The widened gate: deterministic service runs in lockstep."""
        config = SystemConfig.parse("8/2x4x4 XBAR/2")
        workload = Workload(0.06, 1.0, 0.1,
                            service_distribution="deterministic")
        assert _supported(config, workload)
        seeds = [901, 902, 903, 904]
        batched = _point_delays(config, workload, seeds, 500.0, 50.0)
        for k, seed in enumerate(seeds):
            scalar = simulate(config, workload, horizon=500.0, warmup=50.0,
                              seed=seed).mean_queueing_delay
            _assert_same_delay(scalar, batched[k], f"replication {k}")

    def test_unsupported_reason_names_the_gate(self):
        workload = Workload(0.05, 1.0, 0.1)
        for triplet in ("16/1x16x8 XBAR/2", "16/1x16x16 OMEGA/2",
                        "16/4x4x4 CUBE/1", "8/1x8x8 BASELINE/2",
                        "16/16x1x1 SBUS/2"):
            assert batched_unsupported_reason(triplet, workload) is None
        assert "arbitration" in batched_unsupported_reason(
            "16/1x16x8 XBAR/2", workload, arbitration="random")
        assert "infinite resource pool" in batched_unsupported_reason(
            "16/16x1x1 SBUS/inf", workload)
        lattice = Workload(0.05, 1.0, 0.1,
                           interarrival_distribution="deterministic")
        assert "interarrival" in batched_unsupported_reason(
            "16/1x16x8 XBAR/2", lattice)
        # Faults attached, whatever their shape, mean the scalar engine.
        time_zero = FaultConfig(schedule=FaultSchedule.of(
            (0.0, "cell", (0, (0, 0)), "down")))
        faulted = [
            ("16/1x16x8 XBAR/2",
             FaultConfig(models=(CellFault(mttf=100.0, mttr=10.0),))),
            ("16/1x16x8 XBAR/2", FaultConfig(schedule=FaultSchedule.of(
                (5.0, "cell", (0, (0, 0)), "down")))),
            ("16/1x16x8 XBAR/2", time_zero),
            ("16/1x16x8 XBAR/2", FaultConfig()),
            ("16/1x16x16 OMEGA/2", time_zero),
            ("16/16x1x1 SBUS/2", FaultConfig()),
        ]
        for triplet, faults in faulted:
            config = SystemConfig.parse(triplet).with_faults(faults)
            assert "fault configuration" in batched_unsupported_reason(
                config, workload), triplet

    def test_every_reason_names_the_blocking_property(self):
        """Regression for the stale "XBAR fabrics only" phrasing.

        Each gated combination's reason must name the property that
        actually blocks it — never a fabric family that now has a
        dispatch kernel, and never the old blanket scope claim.
        """
        workload = Workload(0.05, 1.0, 0.1)
        faulted = FaultConfig(schedule=FaultSchedule.of(
            (0.0, "cell", (0, (0, 0)), "down")))
        gated = [
            ("16/16x1x1 SBUS/inf", workload, {}, "infinite resource pool"),
            ("16/1x16x8 XBAR/2", workload, {"arbitration": "random"},
             "'random' arbitration"),
            ("16/1x16x8 XBAR/2", workload, {"arbitration": "fifo"},
             "'fifo' arbitration"),
            ("16/1x16x8 XBAR/2",
             Workload(0.05, 1.0, 0.1,
                      transmission_distribution="deterministic"),
             {}, "'deterministic' transmission distribution"),
            ("16/1x16x8 XBAR/2",
             Workload(0.05, 1.0, 0.1,
                      interarrival_distribution="deterministic"),
             {}, "'deterministic' interarrival distribution"),
            (SystemConfig.parse("16/1x16x8 XBAR/2").with_faults(faulted),
             workload, {}, "fault configuration"),
            (SystemConfig.parse("16/1x16x16 OMEGA/2").with_faults(faulted),
             workload, {}, "fault configuration"),
            (SystemConfig.parse("16/16x1x1 SBUS/2").with_faults(
                FaultConfig()), workload, {}, "fault configuration"),
        ]
        for config, case_workload, kwargs, needle in gated:
            reason = batched_unsupported_reason(config, case_workload,
                                                **kwargs)
            assert reason is not None, f"{config} should be gated"
            assert needle in reason, f"{reason!r} must name {needle!r}"
            assert "fabrics only" not in reason

    def test_point_of_row_maps_rows_to_points(self):
        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workloads = [Workload(0.03, 1.0, 0.1), Workload(0.05, 1.0, 0.1)]
        engine = MegaBatchEngine(config, workloads,
                                 seed_groups=[[1, 2, 3], [4, 5]])
        assert engine.point_of_row.tolist() == [0, 0, 0, 1, 1]
        assert engine.seed_groups == ((1, 2, 3), (4, 5))

    def test_megabatch_validation(self):
        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workloads = [Workload(0.03, 1.0, 0.1), Workload(0.05, 1.0, 0.1)]
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, [], seed_groups=[])
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, workloads, seed_groups=[[1]])
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, workloads, seed_groups=[[1], []])
        mixed = [Workload(0.03, 1.0, 0.1),
                 Workload(0.05, 1.0, 0.1,
                          service_distribution="deterministic")]
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, mixed, seed_groups=[[1], [2]])

    def test_non_finite_window_rejected(self):
        """A NaN or infinite window fails the shared check instead of
        returning NaN or running forever."""
        workload = Workload(0.05, 1.0, 0.1)
        for horizon, warmup in ((math.nan, math.nan), (math.nan, 0.0),
                                (100.0, math.nan), (math.inf, 0.0)):
            with pytest.raises(ConfigurationError):
                batched_delays("4/1x4x2 XBAR/2", [workload], horizon=horizon,
                               warmup=warmup, seed_groups=[[1]])


def _grouped_by_processors(cases):
    """Cases bucketed into lockstep-compatible groups of two or more:
    equal processor count and service distribution."""
    buckets = {}
    for config, workload in cases:
        key = (config.processors, workload.service_distribution)
        buckets.setdefault(key, []).append((config, workload))
    return [group for group in buckets.values() if len(group) > 1]


def _check_merged_group(cases, seed_base):
    """Several configurations in one engine == one engine each == scalar.

    ``_check_lockstep_grid`` pins each configuration's own engine to the
    scalar engine; the merged engine must then reproduce every row of
    those per-configuration engines bit for bit.
    """
    _check_lockstep_grid(cases, seed_base)
    horizon, warmup = 400.0, 50.0
    groups = [[seed_base + index * 10 + k for k in range(4)]
              for index in range(len(cases))]
    merged = batched_delays([config for config, _ in cases],
                            [workload for _, workload in cases],
                            horizon=horizon, warmup=warmup,
                            seed_groups=groups)
    for index, ((config, workload), seeds) in enumerate(zip(cases, groups)):
        alone = _point_delays(config, workload, seeds, horizon, warmup)
        for k in range(len(seeds)):
            _assert_same_delay(alone[k], merged[index][k],
                               f"{config} replication {k}")


#: Fig. 7's four crossbar curves: equal processor count and kernel, one
#: 64-column calendar, different partitions, ports and resources.
FIG7_CONFIGS = ("16/1x16x32 XBAR/1", "16/1x16x16 XBAR/2",
                "16/4x4x8 XBAR/1", "16/4x4x4 XBAR/2")


#: The Omega curves of Figs. 12/13: three wirings of one processor count.
FIG12_OMEGA_CONFIGS = ("16/1x16x16 OMEGA/2", "16/8x2x2 OMEGA/2",
                       "16/4x4x4 OMEGA/2")


class TestMergedGroups:
    """Points of different configurations sharing one lockstep engine."""

    def test_randomized_crossbar_groups_match_per_curve_and_scalar(self):
        groups = _grouped_by_processors(_random_cases(16, master_seed=29))
        assert groups
        for number, group in enumerate(groups):
            _check_merged_group(group, seed_base=9000 + number * 1000)

    def test_randomized_bus_groups_match_per_curve_and_scalar(self):
        groups = _grouped_by_processors(
            _random_bus_cases(16, master_seed=31))
        assert groups
        for number, group in enumerate(groups):
            _check_merged_group(group, seed_base=20000 + number * 1000)

    def test_buses_and_crossbars_share_one_engine(self):
        """A shared bus is a one-column crossbar, so bus and crossbar
        points of one processor count run in one engine."""
        groups = [group for group in _grouped_by_processors(
            _random_cases(8, master_seed=37)
            + _random_bus_cases(8, master_seed=41))
            if {config.network_type for config, _ in group}
            == {"XBAR", "SBUS"}]
        assert groups
        for number, group in enumerate(groups):
            _check_merged_group(group, seed_base=25000 + number * 1000)

    def test_multistage_group_shares_one_wiring(self):
        """Multistage points of one wiring that differ in resources per
        port share one engine."""
        cases = [(SystemConfig.parse(f"8/2x4x4 CUBE/{r}"),
                  Workload(0.08, 1.0, 0.1)) for r in (1, 2, 3)]
        _check_merged_group(cases, seed_base=30000)

    def test_mixed_multistage_wirings_share_one_engine(self):
        """Omega, cube and baseline wirings of one processor count, with
        different partition counts and resources, run as one engine."""
        cases = [(SystemConfig.parse(text), Workload(0.06, 1.0, 0.1))
                 for text in ("16/4x4x4 OMEGA/1", "16/2x8x8 CUBE/2",
                              "16/1x16x16 BASELINE/3", "16/8x2x2 CUBE/2")]
        _check_merged_group(cases, seed_base=31000)

    def test_fig7_curves_in_one_engine_match_four_engines(self):
        from repro.analysis.sweep import workload_at

        configs = [SystemConfig.parse(text) for text in FIG7_CONFIGS]
        workloads = [workload_at(intensity, 0.1)
                     for intensity in (0.4, 0.7)]
        points = [(config, workload) for config in configs
                  for workload in workloads]
        groups = [[spawn_seed(1, str(config), index, k) for k in range(4)]
                  for index, (config, _) in enumerate(points)]
        horizon, warmup = 500.0, 50.0
        engine = MegaBatchEngine([config for config, _ in points],
                                 [workload for _, workload in points],
                                 seed_groups=groups)
        assert engine._calendar.shape[1] == 64
        merged = engine.run(horizon=horizon, warmup=warmup).mean_delays
        for config in configs:
            indices = [index for index, (point_config, _)
                       in enumerate(points) if point_config == config]
            alone = batched_delays(config,
                                   [points[index][1] for index in indices],
                                   horizon=horizon, warmup=warmup,
                                   seed_groups=[groups[index]
                                                for index in indices])
            for index, delays in zip(indices, alone):
                assert list(merged[index]) == delays, config

    def test_fig12_omega_curves_in_one_engine_match_three_engines(self):
        """The three Omega wirings of figs. 12/13 as one engine equal one
        engine per wiring bit for bit, and the scalar engine on a sample
        of rows."""
        from repro.analysis.sweep import workload_at

        configs = [SystemConfig.parse(text) for text in FIG12_OMEGA_CONFIGS]
        workloads = [workload_at(intensity, 0.1)
                     for intensity in (0.4, 0.7)]
        points = [(config, workload) for config in configs
                  for workload in workloads]
        groups = [[spawn_seed(2, str(config), index, k) for k in range(4)]
                  for index, (config, _) in enumerate(points)]
        horizon, warmup = 500.0, 50.0
        engine = MegaBatchEngine([config for config, _ in points],
                                 [workload for _, workload in points],
                                 seed_groups=groups)
        merged = engine.run(horizon=horizon, warmup=warmup).mean_delays
        for config in configs:
            indices = [index for index, (point_config, _)
                       in enumerate(points) if point_config == config]
            alone = batched_delays(config,
                                   [points[index][1] for index in indices],
                                   horizon=horizon, warmup=warmup,
                                   seed_groups=[groups[index]
                                                for index in indices])
            for index, delays in zip(indices, alone):
                assert list(merged[index]) == delays, config
        for index, k in ((0, 0), (3, 1), (5, 3)):
            config, workload = points[index]
            scalar = simulate(config, workload, horizon=horizon,
                              warmup=warmup,
                              seed=groups[index][k]).mean_queueing_delay
            _assert_same_delay(scalar, merged[index][k],
                               f"{config} replication {k}")

    def test_fig12_curves_build_two_engines(self, monkeypatch):
        """``simulated_curves`` runs fig. 12's three Omega curves as one
        engine and the crossbar reference curve as another."""
        import repro.sim.batched as batched
        from repro.analysis.sweep import SimulatedCurve, simulated_curves

        engines = []
        front_door = batched.batched_delays

        def spy(config, *args, **kwargs):
            engines.append(sorted({str(item) for item in config}))
            return front_door(config, *args, **kwargs)

        monkeypatch.setattr(batched, "batched_delays", spy)
        curves = [SimulatedCurve(triplet, 0.1, [0.3, 0.6], [4, 5], 800.0)
                  for triplet in FIG12_OMEGA_CONFIGS + ("16/1x16x16 XBAR/2",)]
        points = simulated_curves(curves)
        assert all(point.normalized_delay is not None
                   for curve in points for point in curve)
        assert sorted(engines) == [sorted(FIG12_OMEGA_CONFIGS),
                                   ["16/1x16x16 XBAR/2"]]

    def test_mismatched_points_name_the_reason(self):
        workload = Workload(0.05, 1.0, 0.1)
        faulted = SystemConfig.parse("16/4x4x4 XBAR/2").with_faults(
            FaultConfig(schedule=FaultSchedule.of(
                (0.0, "cell", (0, (0, 0)), "down"))))
        mismatches = [
            (("8/1x8x8 XBAR/2", "16/1x16x16 XBAR/2"), "processor counts"),
            (("8/1x8x8 OMEGA/2", "16/1x16x16 OMEGA/2"), "processor counts"),
            (("16/1x16x16 XBAR/2", "16/1x16x16 OMEGA/2"), "dispatch kernels"),
            (("16/4x4x4 XBAR/2", faulted), "fault configuration"),
            # A faulted configuration builds no engine, not even with itself.
            ((faulted, faulted), "fault configuration"),
        ]
        for configs, needle in mismatches:
            with pytest.raises(ConfigurationError, match=needle):
                MegaBatchEngine(list(configs), [workload, workload],
                                seed_groups=[[1], [2]])
        # Different multistage wirings of one processor count share one
        # engine: the router takes a wiring per row.
        for configs in (("16/1x16x16 OMEGA/2", "16/4x4x4 OMEGA/2"),
                        ("16/4x4x4 OMEGA/2", "16/4x4x4 CUBE/2")):
            engine = MegaBatchEngine(list(configs), [workload, workload],
                                     seed_groups=[[1], [2]])
            assert engine.point_of_row.tolist() == [0, 1]
        with pytest.raises(ConfigurationError, match="one configuration"):
            MegaBatchEngine(["16/1x16x16 XBAR/2"], [workload, workload],
                            seed_groups=[[1], [2]])

    def test_pool_grows_while_queues_hold_tasks(self, monkeypatch):
        """Overloaded rows outgrow the queue-slot pool while many queues
        hold tasks; growing it must keep every queue's FIFO links (so the
        delays still equal the scalar engine)."""
        waiting = []
        grow = MegaBatchEngine._grow_pool

        def spy(engine):
            waiting.append(int((engine._queue_length > 0).sum()))
            grow(engine)

        monkeypatch.setattr(MegaBatchEngine, "_grow_pool", spy)
        # Private 1x1 partitions: every processor pops its own queue.
        config = SystemConfig.parse("4/4x1x1 XBAR/1")
        workload = Workload(0.8, 1.0, 1.0)
        seeds = list(range(41, 57))
        batched = _point_delays(config, workload, seeds, 300.0, 30.0)
        assert len(waiting) >= 2 and waiting[0] >= 16
        for k, seed in enumerate(seeds):
            scalar = simulate(config, workload, horizon=300.0, warmup=30.0,
                              seed=seed).mean_queueing_delay
            _assert_same_delay(scalar, batched[k], f"replication {k}")

    def test_queue_storage_follows_waiting_tasks(self):
        """One overloaded row beside many light ones: queue storage
        follows the tasks waiting over all rows, not rows x the longest
        queue."""
        config = SystemConfig.parse("4/4x1x1 XBAR/1")
        light, heavy = Workload(0.05, 1.0, 1.0), Workload(0.8, 1.0, 1.0)
        engine = MegaBatchEngine(config, [heavy, light],
                                 seed_groups=[[3], list(range(100, 163))])
        engine.run(horizon=2000.0, warmup=200.0)
        # The arrays that own queue state (queue lengths live in a view).
        storage = sum(value.nbytes for name, value in vars(engine).items()
                      if name.startswith(("_queue", "_slot", "_free"))
                      and isinstance(value, np.ndarray) and value.base is None)
        queues = engine._queue_length.size
        longest = int(engine._queue_length.max())
        waiting = int(engine._queue_length.sum())
        assert longest >= 256
        assert storage <= 96 * (queues + waiting)
        # Rings of float64s as long as the longest queue take 8x more.
        assert storage <= queues * longest


def _words_from_state(engine):
    """Both dispatch words of every row, recomputed from the engine's
    queue, circuit, bus and resource arrays."""
    bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    configs = [engine.configs[point] for point in engine.point_of_row]
    waiting = (engine._queue_length > 0) & (engine._connected_port < 0)
    requests = (waiting * bits[:waiting.shape[1]]).sum(axis=1,
                                                       dtype=np.uint64)
    ports = engine._bus_busy.shape[1]
    resources = np.array([config.resources_per_port for config in configs])
    owned = np.arange(ports) < np.array(
        [config.total_ports for config in configs])[:, None]
    accepting = (owned & (engine._bus_busy == 0)
                 & (engine._busy_resources < resources[:, None]))
    status = (accepting * bits[:ports]).sum(axis=1, dtype=np.uint64)
    return requests.tolist(), status.tolist()


def _busy_cases(cases):
    """``cases`` at three times their load, so ports and buses run out."""
    return [(config, Workload(workload.arrival_rate * 3, 1.0, 0.1,
                              service_distribution=
                              workload.service_distribution))
            for config, workload in cases]


def _run_groups(groups, seed_base):
    for number, group in enumerate(groups):
        batched_delays([config for config, _ in group],
                       [workload for _, workload in group], horizon=300.0,
                       warmup=30.0,
                       seed_groups=[[seed_base + number * 100 + index * 10 + k
                                     for k in range(3)]
                                    for index in range(len(group))])


class TestStatusWords:
    """The request and status words the dispatch kernels read."""

    def test_words_follow_the_engine_state(self, monkeypatch):
        """After every dispatch, each row's words equal the ones its
        queue, circuit, bus and resource arrays spell out."""
        checks = []
        apply = MegaBatchEngine._apply_grants

        def spy(engine, *args):
            apply(engine, *args)
            assert (engine._requests.tolist(), engine._status.tolist()) == (
                _words_from_state(engine))
            checks.append(engine.configs[0].network_type)

        monkeypatch.setattr(MegaBatchEngine, "_apply_grants", spy)
        groups = (_grouped_by_processors(_busy_cases(
                      _random_cases(12, master_seed=43)))
                  + _grouped_by_processors(_busy_cases(
                      _random_bus_cases(12, master_seed=47)))
                  + _grouped_by_processors(_busy_cases(
                      _random_multistage_cases(12, master_seed=53))))
        _run_groups(groups, seed_base=40000)
        assert {"XBAR", "SBUS"} <= set(checks)
        assert {"OMEGA", "CUBE", "BASELINE"} & set(checks)

    def test_crossbar_rows_get_one_grant_per_match(self, monkeypatch):
        """A partition is settled after each step, so an event leaves at
        most one grantable pair: no row is granted twice in one call."""
        import repro.sim.batched as batched

        calls = []
        match = batched.match_pairs_batch

        def spy(requests, status):
            rows, processors, ports = match(requests, status)
            assert len(set(rows.tolist())) == rows.shape[0]
            assert rows.shape[0] == requests.shape[0]
            calls.append(rows.shape[0])
            return rows, processors, ports

        monkeypatch.setattr(batched, "match_pairs_batch", spy)
        cases = _busy_cases(_random_cases(12, master_seed=59)
                            + _random_bus_cases(12, master_seed=61))
        _run_groups(_grouped_by_processors(cases), seed_base=50000)
        assert calls and max(calls) > 1

    def test_a_full_word_batches_and_a_wider_row_runs_scalar(self,
                                                             monkeypatch):
        """64 processors and 64 ports fill the words and still equal the
        scalar engine; one more processor or port is refused by name, and
        ``simulated_curves`` gives that point its scalar value."""
        from repro.analysis.sweep import (
            POINT_REPLICATIONS,
            SimulatedCurve,
            simulated_curves,
            workload_at,
        )
        from repro.sim.stats import confidence_interval

        granted = []
        apply = MegaBatchEngine._apply_grants

        def spy(engine, grant_reps, grant_rows, grant_ports, *args):
            granted.append((int(grant_rows.max()), int(grant_ports.max())))
            apply(engine, grant_reps, grant_rows, grant_ports, *args)

        monkeypatch.setattr(MegaBatchEngine, "_apply_grants", spy)
        full = SystemConfig.parse("64/1x64x64 XBAR/1")
        workload = Workload(0.08, 1.0, 0.1)
        assert _supported(full, workload)
        seeds = [71, 72, 73]
        batched = _point_delays(full, workload, seeds, 400.0, 40.0)
        for k, seed in enumerate(seeds):
            scalar = simulate(full, workload, horizon=400.0, warmup=40.0,
                              seed=seed).mean_queueing_delay
            _assert_same_delay(scalar, batched[k], f"replication {k}")
        # Bit 63 was granted as a processor and as a port.
        assert max(row for row, _ in granted) == 63
        assert max(port for _, port in granted) == 63

        for triplet in ("65/1x65x64 XBAR/1", "4/1x4x65 XBAR/1"):
            config = SystemConfig.parse(triplet)
            workload = workload_at(0.3, 0.1, processors=config.processors)
            reason = batched_unsupported_reason(config, workload)
            assert reason is not None and "more than 64" in reason, triplet
            with pytest.raises(ConfigurationError, match="more than 64"):
                MegaBatchEngine(config, [workload], seed_groups=[[1]])
            per_replication = 400.0 / POINT_REPLICATIONS
            mean, halfwidth = confidence_interval([
                simulate(config, workload, horizon=per_replication,
                         warmup=per_replication * 0.1,
                         seed=spawn_seed(5, "batched-replication",
                                         replication)).mean_queueing_delay
                for replication in range(POINT_REPLICATIONS)])
            [[point]] = simulated_curves([SimulatedCurve(
                config, 0.1, [0.3], [5], 400.0)])
            assert point.normalized_delay == mean * workload.service_rate
            assert point.ci_halfwidth == halfwidth * workload.service_rate


class TestVariateStreams:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_uniform_block_sources_agree_with_random_random(self, vectorized):
        source = uniform_block_source(1234, vectorized)
        reference = random.Random(1234)
        drawn = source(100) + source(37) + source(256)
        assert drawn == [reference.random() for _ in range(393)]

    def test_scalar_sources_keep_no_twister_state(self):
        """A scalar source holds its seed and a count between blocks, not
        a ~3 KiB Mersenne Twister state."""
        import tracemalloc

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sources = [uniform_block_source(spawn_seed(5, index), False)
                       for index in range(4096)]
            for source in sources:
                source(16)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(sources) < 1024

    @pytest.mark.parametrize("distribution", ["exponential",
                                              "hyperexponential"])
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_variate_table_matches_sample_time(self, distribution, vectorized):
        """Row s of the table draws exactly the scalar stream's variates."""
        seeds = [spawn_seed(9, "arrivals-0"), spawn_seed(9, "service-1")]
        table = VariateTable(seeds, rate=0.4, distribution=distribution,
                             block=16, vectorized=vectorized)
        for row, seed in enumerate(seeds):
            stream = RngStream(seed)
            for _ in range(40):
                expected = sample_time(stream, 0.4, distribution)
                assert table.draw_one(row) == expected
        # Right-sized first blocks, one estimate far too small for the
        # stream: block boundaries move, the sequence does not.
        sized = VariateTable(seeds, rate=0.4, distribution=distribution,
                             block=256, vectorized=vectorized,
                             expected=[0.0, 30.0])
        streams = [RngStream(seed) for seed in seeds]
        for step in range(300):
            rows = np.arange(len(seeds)) if step % 2 else None
            values = (sized.draw(rows) if rows is not None else
                      [sized.draw_one(row) for row in range(len(seeds))])
            for row, stream in enumerate(streams):
                assert values[row] == sample_time(stream, 0.4, distribution)

    def test_ragged_streams_allocate_their_own_capacities(self):
        """Streams expecting very different draw counts hold the sum of
        their capacities, not rows times the widest."""
        from repro.sim.batched import first_block_size

        expected = [0.0, 10.0, 5000.0, 3.0, 40.0, 1.5]
        table = VariateTable(list(range(len(expected))), rate=1.0,
                             distribution="exponential", block=256,
                             vectorized=False, expected=expected)
        capacities = [first_block_size(draws, 256) for draws in expected]
        assert capacities == [8, 18, 256, 11, 48, 10]
        assert table._buffer.size == sum(capacities)
        assert table._buffer.size < len(expected) * max(capacities) // 2

    @pytest.mark.parametrize("distribution", ["exponential",
                                              "hyperexponential"])
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_outrun_stream_refills_bit_identically(
            self, monkeypatch, distribution, vectorized):
        """A stream that outruns its first block several times still
        draws ``sample_time``'s exact sequence, and no refill is smaller
        than its first block."""
        import repro.sim.batched as batched

        requests = {}
        make_source = batched.uniform_block_source

        def recording(seed, flag=True):
            source = make_source(seed, flag)

            def block(count):
                requests.setdefault(seed, []).append(count)
                return source(count)
            return block

        monkeypatch.setattr(batched, "uniform_block_source", recording)
        seeds = [spawn_seed(4, "transmission-0"), spawn_seed(4, "service-2")]
        table = VariateTable(seeds, rate=[0.7, 2.5],
                             distribution=distribution,
                             vectorized=vectorized, expected=[2.0, 9.0])
        streams = [RngStream(seed) for seed in seeds]
        for step in range(80):
            rows = np.arange(len(seeds)) if step % 3 else None
            values = (table.draw(rows) if rows is not None else
                      [table.draw_one(row) for row in range(len(seeds))])
            for row, (stream, rate) in enumerate(zip(streams, (0.7, 2.5))):
                assert values[row] == sample_time(stream, rate, distribution)
        per_variate = 2 if distribution == "hyperexponential" else 1
        for seed, first in zip(seeds, (10, 17)):
            counts = requests[seed]
            assert len(counts) > 2, "the stream must refill more than once"
            assert counts[0] == first * per_variate
            assert min(counts) >= counts[0]

    def test_variate_table_validation(self):
        with pytest.raises(ConfigurationError):
            VariateTable([1], rate=0.0, distribution="exponential")
        for rate in (math.nan, math.inf, [1.0, math.nan]):
            with pytest.raises(ConfigurationError, match="finite"):
                VariateTable([1, 2], rate=rate, distribution="exponential")
        with pytest.raises(ConfigurationError, match="expected draw"):
            VariateTable([1], rate=1.0, distribution="exponential",
                         expected=math.nan)
        with pytest.raises(ConfigurationError):
            VariateTable([1], rate=1.0, distribution="weibull")
        with pytest.raises(ConfigurationError):
            VariateTable([1], rate=1.0, distribution="exponential", block=3)
        with pytest.raises(ConfigurationError):
            VariateTable([1, 2], rate=[1.0], distribution="exponential")

    def test_per_row_rates_match_scalar_streams(self):
        """The mega-batch shape: one table, a different rate per row."""
        seeds = [spawn_seed(3, "arrivals-0"), spawn_seed(3, "arrivals-1")]
        rates = [0.25, 0.8]
        table = VariateTable(seeds, rate=rates, distribution="exponential",
                             block=16)
        for row, (seed, rate) in enumerate(zip(seeds, rates)):
            stream = RngStream(seed)
            for _ in range(20):
                expected = sample_time(stream, rate, "exponential")
                assert table.draw_one(row) == expected

    def test_deterministic_rows_draw_no_uniforms(self):
        table = VariateTable([7], rate=0.5, distribution="deterministic",
                             block=8)
        for _ in range(20):
            assert table.draw_one(0) == 2.0
        # sample_time's contract: deterministic draws touch no randomness,
        # so the equivalent scalar stream stays untouched too.
        stream = RngStream(7)
        before = stream.random()
        replay = RngStream(7)
        assert sample_time(replay, 0.5, "deterministic") == 2.0
        assert replay.random() == before


class TestVariateCrossover:
    def test_crossover_choice_is_bit_identical(self, monkeypatch):
        """Both refill backends emit the same variates; the crossover
        cannot change results, only where generator construction is
        paid."""
        import repro.sim.batched as batched

        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workload = Workload(0.05, 1.0, 0.1)
        seeds = [21, 22]
        default = MegaBatchEngine(
            config, [workload], [seeds]).run(400.0, 40.0)
        monkeypatch.setattr(batched, "_VECTORIZED_REFILL_CROSSOVER", 0)
        forced_numpy = MegaBatchEngine(
            config, [workload], [seeds]).run(400.0, 40.0)
        monkeypatch.setattr(batched, "_VECTORIZED_REFILL_CROSSOVER", 10 ** 9)
        forced_scalar = MegaBatchEngine(
            config, [workload], [seeds]).run(400.0, 40.0)
        assert all(not math.isnan(d) for d in default.mean_delays[0])
        assert default.mean_delays == forced_numpy.mean_delays
        assert default.mean_delays == forced_scalar.mean_delays


def _sweep_point(triplet, intensity, seed, horizon):
    """One simulated sweep point: a one-point curve of ``simulated_curves``."""
    from repro.analysis.sweep import SimulatedCurve, simulated_curves

    [[point]] = simulated_curves([SimulatedCurve(
        triplet, 0.1, [intensity], [seed], horizon)])
    return point


class TestSweepPointEngine:
    """A sweep point is a one-point curve of ``simulated_curves``."""

    def test_batched_point_reports_replication_interval(self):
        point = _sweep_point("16/1x16x8 XBAR/2", 0.4, 5, horizon=2_000.0)
        assert point.normalized_delay is not None
        assert point.ci_halfwidth is not None and point.ci_halfwidth > 0

    def test_batched_point_runs_new_fabrics(self):
        """Omega and single-bus points run batched, matching scalar seeds
        replication for replication (same spawned seed names)."""
        for triplet, intensity in (("8/1x8x8 OMEGA/2", 0.4),
                                   ("16/4x1x1 SBUS/2", 0.2)):
            point = _sweep_point(triplet, intensity, 5, horizon=1_500.0)
            assert point.normalized_delay is not None
            assert point.ci_halfwidth is not None and point.ci_halfwidth > 0

    def test_engine_never_changes_a_point(self, monkeypatch):
        """One estimator on either engine: with the batchability gate
        forced to refuse, every point equals its lockstep value bit for
        bit, and a point the gate refuses is the Student-t interval over
        its replications' scalar runs."""
        import repro.sim.batched as batched
        from repro.analysis.sweep import (
            POINT_REPLICATIONS,
            SimulatedCurve,
            simulated_curves,
            workload_at,
        )
        from repro.sim.stats import confidence_interval

        curves = [SimulatedCurve(triplet, 0.1, [0.2, 0.4], [5, 6], 800.0)
                  for triplet in ("16/1x16x8 XBAR/2", "8/1x8x8 OMEGA/2")]
        lockstep = simulated_curves(curves)
        assert all(point.normalized_delay is not None
                   for points in lockstep for point in points)
        with monkeypatch.context() as patch:
            patch.setattr(batched, "batched_unsupported_reason",
                          lambda *args, **kwargs: "forced off")
            assert simulated_curves(curves) == lockstep

        refused = "16/16x1x1 SBUS/inf"
        workload = workload_at(0.4, 0.1)
        assert not _supported(SystemConfig.parse(refused), workload)
        per_replication = 800.0 / POINT_REPLICATIONS
        mean, halfwidth = confidence_interval([
            simulate(refused, workload, horizon=per_replication,
                     warmup=per_replication * 0.1,
                     seed=spawn_seed(5, "batched-replication", replication)
                     ).mean_queueing_delay
            for replication in range(POINT_REPLICATIONS)])
        point = _sweep_point(refused, 0.4, 5, horizon=800.0)
        assert point.normalized_delay == mean * workload.service_rate
        assert point.ci_halfwidth == halfwidth * workload.service_rate

    def test_simulated_curve_imports_no_scipy(self):
        """The simulated path reads its Student-t quantiles from a table:
        a fresh interpreter that runs one small curve never loads
        scipy."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.analysis.sweep import SimulatedCurve, "
            "simulated_curves\n"
            "[[point]] = simulated_curves([SimulatedCurve("
            "'8/1x8x8 XBAR/2', 0.1, [0.3], [1], 400.0)])\n"
            "assert point.ci_halfwidth is not None\n"
            "print('scipy' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, check=False)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_saturated_point_short_circuits(self):
        point = _sweep_point("16/1x16x8 XBAR/2", 5.0, 1, horizon=30_000.0)
        assert point.normalized_delay is None


class TestCommonRandomNumbers:
    def test_crn_halfwidth_no_wider_than_unpaired(self):
        """The acceptance pin: pairing cancels common workload noise."""
        from repro.analysis.replication import compare_with_replications
        from repro.analysis.sweep import workload_at

        workload = workload_at(0.5, 0.1)
        shared = dict(workload=workload, horizon=1_500.0, warmup=150.0,
                      replications=8, base_seed=100)
        first, second = "16/1x16x8 XBAR/2", "16/1x16x16 XBAR/1"
        _, paired_half, _ = compare_with_replications(
            first, second, crn=True, **shared)
        _, unpaired_half, _ = compare_with_replications(
            first, second, crn=False, **shared)
        assert paired_half <= unpaired_half

    def test_crn_comparison_engines_agree(self, monkeypatch):
        """The CRN comparison forced onto scalar replications equals the
        default one bit for bit."""
        import repro.sim.batched as batched
        from repro.analysis.replication import compare_with_replications
        from repro.analysis.sweep import workload_at

        workload = workload_at(0.4, 0.1)
        shared = dict(workload=workload, horizon=800.0, warmup=80.0,
                      replications=4, base_seed=50, crn=True)
        healthy = SystemConfig.parse("8/1x8x4 XBAR/2")
        # A statically faulted fabric runs scalar replications either way.
        faulted = healthy.with_faults(FaultConfig(schedule=FaultSchedule.of(
            (0.0, "cell", (0, (0, 0)), "down"),
            (0.0, "cell", (0, (1, 2)), "down"))))
        for first, second in ((healthy, "8/1x8x8 XBAR/1"),
                              (faulted, healthy)):
            default = compare_with_replications(first, second, **shared)
            with monkeypatch.context() as patch:
                patch.setattr(batched, "batched_unsupported_reason",
                              lambda *args, **kwargs: "forced off")
                scalar = compare_with_replications(first, second, **shared)
            assert scalar == default


class TestBatchedEvaluator:
    def test_batched_wave_matches_scalar_units(self):
        """The front door's replications == one scalar run per seed."""
        workload = Workload(0.05, 1.0, 0.1)
        seeds = [300 + index for index in range(4)]
        wave = _point_delays("8/1x8x4 XBAR/2", workload, seeds, 600.0, 60.0)
        for seed, value in zip(seeds, wave):
            scalar = simulate("8/1x8x4 XBAR/2", workload, horizon=600.0,
                              warmup=60.0, seed=seed).mean_queueing_delay
            assert value == scalar
