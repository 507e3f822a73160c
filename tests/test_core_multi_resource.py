"""Tests for the multi-resource / deadlock extension (Section VII)."""

import pytest

from repro.config import SystemConfig
from repro.core.multi_resource import STRATEGIES, MultiResourceSystem
from repro.errors import ConfigurationError, SimulationError
from repro.workload import Workload

CONFIG = "8/1x8x4 XBAR/2"   # 8 fungible resources
MODERATE = Workload(arrival_rate=0.03, transmission_rate=1.0,
                    service_rate=0.15)


def run(strategy, k=3, workload=MODERATE, horizon=20_000.0, seed=2):
    system = MultiResourceSystem(SystemConfig.parse(CONFIG), workload,
                                 resources_needed=k, strategy=strategy,
                                 seed=seed)
    result = system.run(horizon=horizon, warmup=horizon * 0.1)
    return system, result


class TestConstruction:
    def test_only_single_crossbars(self):
        with pytest.raises(ConfigurationError):
            MultiResourceSystem(SystemConfig.parse("8/1x8x8 OMEGA/1"),
                                MODERATE)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiResourceSystem(SystemConfig.parse(CONFIG), MODERATE,
                                strategy="optimistic")

    def test_request_size_bounds(self):
        with pytest.raises(ConfigurationError):
            MultiResourceSystem(SystemConfig.parse(CONFIG), MODERATE,
                                resources_needed=0)
        with pytest.raises(ConfigurationError):
            MultiResourceSystem(SystemConfig.parse(CONFIG), MODERATE,
                                resources_needed=9)

    def test_single_run_only(self):
        system = MultiResourceSystem(SystemConfig.parse(CONFIG), MODERATE)
        system.run(horizon=100.0)
        with pytest.raises(SimulationError):
            system.run(horizon=100.0)


class TestSingleResourceDegenerate:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_k1_never_deadlocks_and_conserves_work(self, strategy):
        system, result = run(strategy, k=1, horizon=30_000.0)
        assert system.deadlocks_detected == 0
        offered = 8 * MODERATE.arrival_rate
        rate = result.completed_tasks / (result.simulated_time - 3_000.0)
        assert rate == pytest.approx(offered, rel=0.06)

    def test_k1_strategies_agree(self):
        delays = [run(strategy, k=1)[1].mean_queueing_delay
                  for strategy in ("atomic", "claimed")]
        assert delays[0] == pytest.approx(delays[1], rel=0.2, abs=0.02)


class TestDeadlockBehaviour:
    def test_atomic_never_deadlocks(self):
        system, _result = run("atomic", k=3)
        assert system.deadlocks_detected == 0
        assert system.aborts == 0

    def test_claimed_never_deadlocks(self):
        """Banker-style admission control is deadlock-free by construction
        (the system raises if the invariant is ever violated)."""
        system, _result = run("claimed", k=3)
        assert system.deadlocks_detected == 0

    def test_uncoordinated_race_deadlocks(self):
        """The distributed capture race produces real counting deadlocks,
        resolved by aborting the youngest holder."""
        system, _result = run("incremental", k=3)
        assert system.deadlocks_detected > 0
        assert system.aborts == system.deadlocks_detected

    def test_deadlock_thrashing_costs_throughput(self):
        _inc_system, incremental = run("incremental", k=3)
        _atomic_system, atomic = run("atomic", k=3)
        assert incremental.completed_tasks < 0.8 * atomic.completed_tasks

    def test_atomic_stable_at_moderate_load(self):
        _system, result = run("atomic", k=3, horizon=30_000.0)
        offered = 8 * MODERATE.arrival_rate
        rate = result.completed_tasks / (result.simulated_time - 3_000.0)
        assert rate == pytest.approx(offered, rel=0.06)


class TestAccounting:
    def test_resources_conserved(self):
        system, _result = run("incremental", k=2)
        held = sum(len(h.held) for h in system.waiting_holders)
        # Every resource is free, held by a waiter, or attached to an
        # in-flight (transmitting/serving) task.
        in_flight = (system.transmitting_count + system.serving_count) * 0  # held sets live on entries
        total = int(system.config.total_resources)
        assert len(system.free) + held <= total

    def test_holder_cap_formula(self):
        system = MultiResourceSystem(SystemConfig.parse(CONFIG), MODERATE,
                                     resources_needed=3, strategy="claimed")
        # (8 - 1) // (3 - 1) = 3 concurrent partial holders.
        assert system._holder_cap() == 3
        loose = MultiResourceSystem(SystemConfig.parse(CONFIG), MODERATE,
                                    resources_needed=1, strategy="claimed")
        assert loose._holder_cap() == float("inf")
