"""Tests for the RSIN system simulator."""

import pytest

from repro.config import SystemConfig
from repro.core import RsinSystem, simulate
from repro.errors import ConfigurationError, SimulationError
from repro.workload import Workload

LIGHT = Workload(arrival_rate=0.02, transmission_rate=1.0, service_rate=0.1)


class TestBasicRuns:
    def test_simulate_accepts_config_string(self):
        result = simulate("4/1x4x4 XBAR/1", LIGHT, horizon=2_000.0)
        assert result.completed_tasks > 0
        assert result.mean_queueing_delay >= 0.0

    def test_reproducible_given_seed(self):
        first = simulate("4/1x4x4 XBAR/1", LIGHT, horizon=2_000.0, seed=9)
        second = simulate("4/1x4x4 XBAR/1", LIGHT, horizon=2_000.0, seed=9)
        assert first.mean_queueing_delay == second.mean_queueing_delay
        assert first.completed_tasks == second.completed_tasks

    def test_seeds_differ(self):
        first = simulate("4/1x4x4 XBAR/1", LIGHT, horizon=2_000.0, seed=1)
        second = simulate("4/1x4x4 XBAR/1", LIGHT, horizon=2_000.0, seed=2)
        assert first.mean_queueing_delay != second.mean_queueing_delay

    @pytest.mark.parametrize("triplet", [
        "8/1x1x1 SBUS/4",
        "8/2x1x1 SBUS/2",
        "8/1x8x8 XBAR/2",
        "8/1x8x8 OMEGA/1",
        "8/1x8x8 CUBE/1",
        "8/2x4x4 OMEGA/2",
        "8/8x1x1 SBUS/inf",
    ])
    def test_every_network_type_runs(self, triplet):
        result = simulate(triplet, LIGHT, horizon=1_500.0, seed=4)
        assert result.completed_tasks > 0

    def test_run_only_once(self):
        system = RsinSystem(SystemConfig.parse("4/1x4x4 XBAR/1"), LIGHT)
        system.run(horizon=100.0)
        with pytest.raises(SimulationError):
            system.run(horizon=100.0)

    def test_bad_horizon_rejected(self):
        system = RsinSystem(SystemConfig.parse("4/1x4x4 XBAR/1"), LIGHT)
        with pytest.raises(ConfigurationError):
            system.run(horizon=10.0, warmup=20.0)

    def test_bad_arbitration_rejected(self):
        with pytest.raises(ConfigurationError):
            RsinSystem(SystemConfig.parse("4/1x4x4 XBAR/1"), LIGHT,
                       arbitration="alphabetical")


class TestConservationLaws:
    def test_throughput_matches_offered_load(self):
        workload = Workload(arrival_rate=0.05, transmission_rate=1.0,
                            service_rate=0.2)
        result = simulate("8/1x8x8 XBAR/2", workload,
                          horizon=40_000.0, warmup=2_000.0, seed=7)
        offered = 8 * workload.arrival_rate
        completed_rate = result.completed_tasks / (
            result.simulated_time - 2_000.0)
        assert completed_rate == pytest.approx(offered, rel=0.05)

    def test_bus_utilization_law(self):
        """Per-bus utilization must equal lambda_total/(m mu_n) (stable)."""
        workload = Workload(arrival_rate=0.05, transmission_rate=1.0,
                            service_rate=0.2)
        result = simulate("8/1x8x8 XBAR/2", workload,
                          horizon=40_000.0, warmup=2_000.0, seed=7)
        expected = 8 * workload.arrival_rate / (8 * workload.transmission_rate)
        assert result.bus_utilization == pytest.approx(expected, rel=0.05)

    def test_resource_utilization_law(self):
        workload = Workload(arrival_rate=0.05, transmission_rate=1.0,
                            service_rate=0.2)
        result = simulate("8/1x8x8 XBAR/2", workload,
                          horizon=40_000.0, warmup=2_000.0, seed=7)
        expected = 8 * workload.arrival_rate / (16 * workload.service_rate)
        assert result.resource_utilization == pytest.approx(expected, rel=0.05)


class TestAgainstMarkovChain:
    """The event simulator must agree with the exact Section III chain."""

    @pytest.mark.parametrize("arrival,ratio,resources", [
        (0.10, 0.1, 4),
        (0.30, 1.0, 4),
    ])
    def test_sbus_simulation_matches_chain(self, arrival, ratio, resources):
        from repro.markov import solve_sbus
        processors = 8
        workload = Workload(arrival_rate=arrival / processors,
                            transmission_rate=1.0, service_rate=ratio)
        exact = solve_sbus(arrival, 1.0, ratio, resources)
        result = simulate(f"8/1x1x1 SBUS/{resources}", workload,
                          horizon=150_000.0, warmup=10_000.0, seed=12)
        assert result.mean_queueing_delay == pytest.approx(
            exact.mean_delay, rel=0.08)

    def test_private_bus_infinite_resources_is_mm1(self):
        from repro.queueing import mm1_metrics
        workload = Workload(arrival_rate=0.5, transmission_rate=1.0,
                            service_rate=5.0)
        result = simulate("4/4x1x1 SBUS/inf", workload,
                          horizon=100_000.0, warmup=5_000.0, seed=12)
        expected = mm1_metrics(0.5, 1.0).mean_waiting_time
        assert result.mean_queueing_delay == pytest.approx(expected, rel=0.08)


class TestArbitrationPolicies:
    def test_priority_favours_low_index_processors(self):
        """Under contention the asymmetric design serves processor 0 first."""
        workload = Workload(arrival_rate=0.4, transmission_rate=1.0,
                            service_rate=0.5)
        config = SystemConfig.parse("4/1x1x1 SBUS/1")
        system = RsinSystem(config, workload, seed=3, arbitration="priority")
        system.run(horizon=20_000.0, warmup=1_000.0)
        waits = {}
        for processor in system.processors:
            waits[processor.index] = len(processor.queue)
        # Lowest-index processor should not have the longest backlog.
        assert waits[0] <= max(waits.values())

    @pytest.mark.parametrize("arbitration", ["priority", "random", "fifo"])
    def test_all_policies_complete_work(self, arbitration):
        result = simulate("4/1x4x4 XBAR/1", LIGHT, horizon=2_000.0,
                          arbitration=arbitration)
        assert result.completed_tasks > 0

    def test_fifo_reduces_delay_variance_vs_priority(self):
        """FIFO wakeups serve the oldest head-of-line task first, so the
        priority policy's starvation tail is longer or equal."""
        workload = Workload(arrival_rate=0.25, transmission_rate=1.0,
                            service_rate=0.5)
        fifo = simulate("4/1x1x1 SBUS/2", workload, horizon=30_000.0,
                        warmup=1_000.0, seed=5, arbitration="fifo")
        priority = simulate("4/1x1x1 SBUS/2", workload, horizon=30_000.0,
                            warmup=1_000.0, seed=5, arbitration="priority")
        # Same throughput either way.
        assert fifo.completed_tasks == pytest.approx(
            priority.completed_tasks, rel=0.03)


class TestOmegaBlockingInSystem:
    def test_blocking_recorded_under_heavy_network_load(self):
        workload = Workload(arrival_rate=0.9, transmission_rate=1.0,
                            service_rate=4.0)
        result = simulate("16/1x16x16 OMEGA/2", workload,
                          horizon=10_000.0, warmup=500.0, seed=5)
        assert result.network_blocking_fraction > 0.05

    def test_crossbar_never_blocks_internally(self):
        workload = Workload(arrival_rate=0.9, transmission_rate=1.0,
                            service_rate=4.0)
        result = simulate("16/1x16x16 XBAR/2", workload,
                          horizon=10_000.0, warmup=500.0, seed=5)
        assert result.network_blocking_fraction == 0.0
