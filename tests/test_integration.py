"""Cross-module integration tests: the paper's claims end to end."""

import pytest

from repro import (
    RsinSystem,
    SystemConfig,
    Workload,
    simulate,
    solve_sbus,
    workload_at,
)


class TestSimulatorAgreesWithTheory:
    """The event simulator, the Markov chain, and classical queueing must
    tell one consistent story."""

    def test_partitioned_buses_match_chain_per_partition(self):
        workload = Workload(arrival_rate=0.015, transmission_rate=1.0,
                            service_rate=0.1)
        result = simulate("16/2x1x1 SBUS/16", workload,
                          horizon=120_000.0, warmup=10_000.0, seed=21)
        exact = solve_sbus(8 * 0.015, 1.0, 0.1, 16)
        assert result.mean_queueing_delay == pytest.approx(
            exact.mean_delay, rel=0.10)

    def test_crossbar_light_load_equals_private_view(self):
        """Section IV: at light load the crossbar looks to each processor
        like a private bus backed by the whole pool."""
        from repro.analysis import crossbar_light_load_delay
        workload = workload_at(0.4, 0.1)
        config = SystemConfig.parse("16/1x16x32 XBAR/1")
        simulated = simulate(config, workload, horizon=60_000.0,
                             warmup=6_000.0, seed=22)
        approx = crossbar_light_load_delay(config, workload)
        assert simulated.mean_queueing_delay == pytest.approx(
            approx.mean_delay, rel=0.3, abs=0.01)

    def test_omega_equals_crossbar_when_resources_bound(self):
        workload = workload_at(0.5, 0.1)
        omega = simulate("16/1x16x16 OMEGA/2", workload, horizon=30_000.0,
                         warmup=3_000.0, seed=23)
        crossbar = simulate("16/1x16x16 XBAR/2", workload, horizon=30_000.0,
                            warmup=3_000.0, seed=23)
        assert omega.mean_queueing_delay == pytest.approx(
            crossbar.mean_queueing_delay, rel=0.3, abs=0.005)

    def test_omega_blocking_costs_delay_when_network_bound(self):
        workload = workload_at(1.0, 4.0)
        omega = simulate("16/1x16x16 OMEGA/2", workload, horizon=20_000.0,
                         warmup=2_000.0, seed=24)
        crossbar = simulate("16/1x16x32 XBAR/1", workload, horizon=20_000.0,
                            warmup=2_000.0, seed=24)
        assert omega.network_blocking_fraction > 0.1
        assert omega.mean_queueing_delay > crossbar.mean_queueing_delay


class TestFairness:
    def test_priority_arbitration_is_unfair(self):
        """The asymmetric wavefront starves high-index processors under
        contention (Section IV); per-processor delays grow with the index."""
        config = SystemConfig.parse("8/1x1x1 SBUS/8")
        workload = Workload(arrival_rate=0.095, transmission_rate=1.0,
                            service_rate=1.0)
        system = RsinSystem(config, workload, seed=11, arbitration="priority")
        system.run(horizon=40_000.0, warmup=4_000.0)
        delays = [tally.mean for tally in system.processor_delays]
        assert delays[7] > 3.0 * delays[0]
        # Monotone growth (allow small sampling wiggle per adjacent pair).
        assert delays[0] < delays[3] < delays[7]

    def test_random_arbitration_is_fair(self):
        config = SystemConfig.parse("8/1x1x1 SBUS/8")
        workload = Workload(arrival_rate=0.095, transmission_rate=1.0,
                            service_rate=1.0)
        system = RsinSystem(config, workload, seed=11, arbitration="random")
        system.run(horizon=40_000.0, warmup=4_000.0)
        delays = [tally.mean for tally in system.processor_delays]
        assert max(delays) < 1.5 * min(delays)

    def test_mean_delay_is_policy_invariant(self):
        """Work conservation: the overall mean delay does not depend on
        which blocked processor is woken first."""
        config = SystemConfig.parse("8/1x1x1 SBUS/8")
        workload = Workload(arrival_rate=0.095, transmission_rate=1.0,
                            service_rate=1.0)
        means = []
        for policy in ("priority", "random", "fifo"):
            result = simulate(config, workload, horizon=40_000.0,
                              warmup=4_000.0, seed=11, arbitration=policy)
            means.append(result.mean_queueing_delay)
        assert max(means) == pytest.approx(min(means), rel=0.05)


class TestScenarioPipelines:
    def test_experiment_registry_round_trip(self):
        from repro.experiments import run_experiment
        outcome = run_experiment("sec2")
        assert outcome.data["optimal_allocatable"] == 3
