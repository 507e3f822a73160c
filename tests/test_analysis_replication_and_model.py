"""Tests for replication methodology and the analytic blocking models."""

import random

import pytest

from repro.analysis.blocking_model import (
    delta_acceptance_probability,
    delta_blocking_curve,
    delta_blocking_probability,
    patel_output_rate,
    rsin_blocking_bound,
)
from repro.analysis.replication import (
    compare_with_replications,
    replicate_delay,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.workload import Workload


class TestReplication:
    WORKLOAD = Workload(arrival_rate=0.04, transmission_rate=1.0,
                        service_rate=0.2)

    def test_estimate_matches_exact_chain(self):
        from repro.markov import solve_sbus
        estimate = replicate_delay("8/1x1x1 SBUS/4", self.WORKLOAD,
                                   horizon=30_000.0, warmup=3_000.0,
                                   target_relative_halfwidth=0.10,
                                   min_replications=5, max_replications=20)
        exact = solve_sbus(8 * 0.04, 1.0, 0.2, 4)
        assert abs(estimate.mean_delay - exact.mean_delay) \
            < 2.0 * estimate.ci_halfwidth + 0.02
        assert estimate.relative_halfwidth <= 0.10
        assert estimate.replications >= 5

    def test_replications_simulate_the_requested_model(self):
        """Every replication runs the configuration and workload asked
        for: a non-exponential service distribution, and a fabric with
        faults attached (the batched engine takes the first and leaves
        the second to the scalar engine)."""
        from repro.config import SystemConfig
        from repro.core.system import simulate
        from repro.faults.models import FaultConfig, FaultSchedule

        deterministic = Workload(0.04, 1.0, 0.2,
                                 service_distribution="deterministic")
        degraded = SystemConfig.parse("8/1x8x4 XBAR/2").with_faults(
            FaultConfig(schedule=FaultSchedule.of(
                *[(0.0, "cell", (0, (row, column)), "down")
                  for row in range(8) for column in (0, 1)])))
        cases = [
            ("8/1x1x1 SBUS/4", deterministic, 2_000.0, 200.0, 0.2),
            (degraded, self.WORKLOAD, 3_000.0, 300.0, 0.25),
        ]
        for config, workload, horizon, warmup, target in cases:
            estimate = replicate_delay(config, workload, horizon=horizon,
                                       warmup=warmup,
                                       target_relative_halfwidth=target)
            assert estimate.values == tuple(
                simulate(config, workload, horizon=horizon, warmup=warmup,
                         seed=100 + index).mean_queueing_delay
                for index in range(estimate.replications)), str(config)

    def test_unreachable_target_raises(self):
        with pytest.raises(AnalysisError):
            replicate_delay("8/1x1x1 SBUS/4", self.WORKLOAD,
                            horizon=600.0, warmup=100.0,
                            target_relative_halfwidth=0.005,
                            min_replications=2, max_replications=3)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            replicate_delay("8/1x1x1 SBUS/4", self.WORKLOAD, 1000.0, 100.0,
                            target_relative_halfwidth=1.5)
        with pytest.raises(ConfigurationError):
            replicate_delay("8/1x1x1 SBUS/4", self.WORKLOAD, 1000.0, 100.0,
                            min_replications=1)

    def test_paired_comparison_resolves_a_real_ordering(self):
        """2 partitions beat 1 partition at this load; common random
        numbers should declare it significant with few replications."""
        workload = Workload(arrival_rate=0.02, transmission_rate=1.0,
                            service_rate=0.1)
        difference, halfwidth, significant = compare_with_replications(
            "16/1x1x1 SBUS/32", "16/2x1x1 SBUS/16", workload,
            horizon=20_000.0, warmup=2_000.0, replications=6)
        assert significant
        assert difference > 0  # one shared bus is slower

    def test_paired_comparison_validates_input(self):
        with pytest.raises(ConfigurationError):
            compare_with_replications("8/1x1x1 SBUS/4", "8/1x1x1 SBUS/4",
                                      self.WORKLOAD, 1000.0, 100.0,
                                      replications=1)


class TestPatelModel:
    def test_one_stage_recursion(self):
        assert patel_output_rate(1.0) == pytest.approx(0.75)
        assert patel_output_rate(0.0) == 0.0

    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            patel_output_rate(1.2)

    def test_acceptance_decreases_with_size(self):
        values = [delta_acceptance_probability(size) for size in (2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(0.75)

    def test_blocking_curve_monotone_in_load(self):
        curve = delta_blocking_curve(8, [0.2, 0.5, 1.0])
        assert curve == sorted(curve)

    def test_zero_load_never_blocks(self):
        assert delta_blocking_probability(8, 0.0) == 0.0

    def test_model_matches_measured_independent_destinations(self):
        """Patel's assumptions realized in the simulator: every processor
        requests an independent uniform destination.  Measured blocking
        tracks the recursion within ~10%."""
        from repro.networks import OmegaTopology, sequential_tag_routing
        rng = random.Random(3)
        topology = OmegaTopology(8)
        for request_probability in (1.0, 0.5):
            blocked = total = 0
            for _ in range(1500):
                pairs = [(source, rng.randrange(8)) for source in range(8)
                         if rng.random() < request_probability]
                if not pairs:
                    continue
                outcome = sequential_tag_routing(topology, pairs)
                blocked += len(outcome.blocked)
                total += len(pairs)
            model = delta_blocking_probability(8, request_probability)
            assert blocked / total == pytest.approx(model, rel=0.12)

    def test_rsin_bound_is_half_of_address_mapping(self):
        full = delta_blocking_probability(8, 1.0)
        assert rsin_blocking_bound(8, 1.0) == pytest.approx(full / 2)
        assert rsin_blocking_bound(8, 1.0, recovery=1.0) == 0.0
        with pytest.raises(ConfigurationError):
            rsin_blocking_bound(8, 1.0, recovery=1.5)
