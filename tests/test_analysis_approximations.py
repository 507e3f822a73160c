"""Tests for the analytic delay approximations (Sections III and IV)."""

import pytest

from repro.analysis import (
    crossbar_envelope_delay,
    crossbar_heavy_load_delay,
    crossbar_light_load_delay,
    saturation_intensity,
    sbus_delay,
    workload_at,
)
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.workload import Workload


class TestSbusDelay:
    def test_partition_decomposition(self):
        """A partitioned bus system equals one partition's chain."""
        from repro.markov import solve_sbus
        workload = Workload(0.02, 1.0, 0.1)
        config = SystemConfig.parse("16/2x1x1 SBUS/16")
        estimate = sbus_delay(config, workload)
        reference = solve_sbus(8 * 0.02, 1.0, 0.1, 16)
        assert estimate.mean_delay == pytest.approx(reference.mean_delay)

    def test_infinite_resources_is_mm1(self):
        from repro.queueing import mm1_metrics
        workload = Workload(0.3, 1.0, 0.1)
        config = SystemConfig.parse("16/16x1x1 SBUS/inf")
        estimate = sbus_delay(config, workload)
        assert estimate.mean_delay == pytest.approx(
            mm1_metrics(0.3, 1.0).mean_waiting_time)
        assert estimate.model == "mm1-infinite-resources"

    def test_non_bus_rejected(self):
        with pytest.raises(ConfigurationError):
            sbus_delay(SystemConfig.parse("16/1x16x16 XBAR/2"),
                       Workload(0.1, 1.0, 1.0))

    def test_normalized_delay_helper(self):
        workload = Workload(0.02, 1.0, 0.1)
        estimate = sbus_delay(SystemConfig.parse("16/16x1x1 SBUS/4"), workload)
        assert estimate.normalized_delay(0.1) == pytest.approx(
            estimate.mean_delay * 0.1)


class TestCrossbarApproximations:
    CONFIG = SystemConfig.parse("16/1x16x16 XBAR/2")

    def test_light_load_close_to_simulation(self):
        from repro.core import simulate
        workload = workload_at(0.3, 0.1)
        light = crossbar_light_load_delay(self.CONFIG, workload)
        simulated = simulate(self.CONFIG, workload, horizon=40_000.0,
                             warmup=4_000.0, seed=6)
        assert light.mean_delay == pytest.approx(
            simulated.mean_queueing_delay, rel=0.25, abs=0.02)

    def test_heavy_load_partitions_processors_over_buses(self):
        config = SystemConfig.parse("16/1x16x4 XBAR/8")
        # p=16 > m=4: heavy load means 4 processors per bus.
        workload = Workload(0.05, 1.0, 0.5)
        heavy = crossbar_heavy_load_delay(config, workload)
        from repro.markov import solve_sbus
        reference = solve_sbus(4 * 0.05, 1.0, 0.5, 8)
        assert heavy.mean_delay == pytest.approx(reference.mean_delay)

    def test_heavy_load_partitions_buses_over_processors(self):
        config = SystemConfig.parse("4/1x4x8 XBAR/2")
        # m=8 > p=4: each processor owns 2 buses and 4 resources.
        workload = Workload(0.1, 1.0, 0.5)
        heavy = crossbar_heavy_load_delay(config, workload)
        from repro.markov import solve_sbus
        reference = solve_sbus(0.1, 1.0, 0.5, 4)
        assert heavy.mean_delay == pytest.approx(reference.mean_delay)

    def test_envelope_is_max_of_regimes(self):
        workload = workload_at(0.5, 0.5)
        light = crossbar_light_load_delay(self.CONFIG, workload).mean_delay
        heavy = crossbar_heavy_load_delay(self.CONFIG, workload).mean_delay
        envelope = crossbar_envelope_delay(self.CONFIG, workload).mean_delay
        assert envelope == pytest.approx(max(light, heavy))

    def test_bus_config_rejected(self):
        with pytest.raises(ConfigurationError):
            crossbar_light_load_delay(SystemConfig.parse("16/16x1x1 SBUS/2"),
                                      Workload(0.1, 1.0, 1.0))


class TestSaturation:
    def test_private_bus_resource_bound(self):
        """16 private buses with 2 resources at ratio 0.1 saturate at
        rho = 1.2 (the crossing behaviour backdrop of Fig. 4)."""
        config = SystemConfig.parse("16/16x1x1 SBUS/2")
        assert saturation_intensity(config, 0.1) == pytest.approx(1.2)

    def test_single_shared_bus_bus_bound(self):
        """One bus for 16 processors saturates when 16 lambda = mu_n:
        rho = 0.375 at ratio 0.1."""
        config = SystemConfig.parse("16/1x1x1 SBUS/32")
        assert saturation_intensity(config, 0.1) == pytest.approx(0.375)

    def test_crossbar_resource_bound_at_small_ratio(self):
        config = SystemConfig.parse("16/1x16x16 XBAR/2")
        # 32 resources x 0.1 = 3.2 total; per-processor 0.2;
        # rho = 16*0.2*(1/16 + 1/3.2) = 1.2.
        assert saturation_intensity(config, 0.1) == pytest.approx(1.2)

    def test_infinite_resources_bus_bound(self):
        config = SystemConfig.parse("16/16x1x1 SBUS/inf")
        # Private bus rate 1 per processor: lambda_max = 1, rho at axis:
        # 16*1*(1/16 + 1/3.2) = 6.0 for ratio 0.1.
        assert saturation_intensity(config, 0.1) == pytest.approx(6.0)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            saturation_intensity(SystemConfig.parse("16/16x1x1 SBUS/2"), 0.0)

    def test_more_partitions_saturate_later_at_small_ratio(self):
        ratios = [saturation_intensity(SystemConfig.parse(text), 0.1)
                  for text in ("16/1x1x1 SBUS/32", "16/2x1x1 SBUS/16",
                               "16/8x1x1 SBUS/4", "16/16x1x1 SBUS/2")]
        assert ratios == sorted(ratios)
