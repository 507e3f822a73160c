"""Unit and property tests for the classical queueing formulas."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import UnstableSystemError
from repro.queueing import (
    birth_death_mean,
    birth_death_probabilities,
    erlang_b,
    erlang_c,
    mean_delay_from_queue_length,
    mean_queue_length_from_delay,
    mm1_metrics,
    mm1_state_probability,
    mmc_metrics,
    mmc_state_probability,
    mmck_blocking_probability,
    mmck_state_probabilities,
    normalized_delay,
    traffic_intensity,
    arrival_rate_for_intensity,
)
from repro.queueing.mm1 import mm1_waiting_time_quantile
from repro.queueing.mmc import mmc_mean_queue_length_exact


class TestMM1:
    def test_textbook_values(self):
        metrics = mm1_metrics(arrival_rate=1.0, service_rate=2.0)
        assert metrics.utilization == 0.5
        assert metrics.mean_number_in_system == pytest.approx(1.0)
        assert metrics.mean_time_in_system == pytest.approx(1.0)
        assert metrics.mean_waiting_time == pytest.approx(0.5)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            mm1_metrics(2.0, 2.0)
        with pytest.raises(UnstableSystemError):
            mm1_metrics(3.0, 2.0)

    def test_state_probabilities_sum_to_one(self):
        total = sum(mm1_state_probability(1.0, 2.0, n) for n in range(200))
        assert total == pytest.approx(1.0)

    def test_littles_law_consistency(self):
        metrics = mm1_metrics(0.7, 1.0)
        assert metrics.mean_number_in_system == pytest.approx(
            metrics.arrival_rate * metrics.mean_time_in_system)

    def test_waiting_quantile_zero_for_small_probability(self):
        assert mm1_waiting_time_quantile(0.5, 1.0, probability=0.2) == 0.0

    def test_waiting_quantile_monotone(self):
        q90 = mm1_waiting_time_quantile(0.8, 1.0, probability=0.9)
        q99 = mm1_waiting_time_quantile(0.8, 1.0, probability=0.99)
        assert q99 > q90 > 0

    @given(rho=st.floats(min_value=0.01, max_value=0.95))
    def test_mm1_equals_mmc_with_one_server(self, rho):
        one = mm1_metrics(rho, 1.0)
        multi = mmc_metrics(rho, 1.0, servers=1)
        assert one.mean_waiting_time == pytest.approx(multi.mean_waiting_time)


class TestErlang:
    def test_erlang_b_zero_load(self):
        assert erlang_b(5, 0.0) == 0.0

    def test_erlang_b_zero_servers_always_blocks(self):
        assert erlang_b(0, 3.0) == 1.0

    def test_erlang_b_known_value(self):
        # Classic: 10 Erlangs on 10 servers ~ 0.2146.
        assert erlang_b(10, 10.0) == pytest.approx(0.2146, abs=1e-3)

    def test_erlang_c_at_capacity(self):
        assert erlang_c(4, 4.0) == 1.0

    def test_erlang_c_above_b(self):
        # Waiting probability exceeds loss probability for the same load.
        assert erlang_c(5, 3.0) > erlang_b(5, 3.0)

    @given(servers=st.integers(1, 20), load=st.floats(0.01, 15.0))
    def test_erlang_b_in_unit_interval(self, servers, load):
        value = erlang_b(servers, load)
        assert 0.0 <= value <= 1.0

    @given(servers=st.integers(1, 12), load=st.floats(0.01, 10.0))
    def test_erlang_b_decreasing_in_servers(self, servers, load):
        assert erlang_b(servers + 1, load) <= erlang_b(servers, load) + 1e-12


class TestMMc:
    def test_matches_direct_summation(self):
        metrics = mmc_metrics(3.0, 1.0, servers=4)
        direct = mmc_mean_queue_length_exact(3.0, 1.0, servers=4)
        assert metrics.mean_number_in_queue == pytest.approx(direct)

    def test_state_probabilities_sum_to_one(self):
        total = sum(mmc_state_probability(2.0, 1.0, 3, n) for n in range(300))
        assert total == pytest.approx(1.0)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            mmc_metrics(4.0, 1.0, servers=4)

    def test_pooling_beats_partitioning(self):
        # One pooled M/M/4 beats four private M/M/1 at the same total load.
        pooled = mmc_metrics(3.2, 1.0, servers=4).mean_waiting_time
        private = mm1_metrics(0.8, 1.0).mean_waiting_time
        assert pooled < private

    @given(servers=st.integers(1, 8), rho=st.floats(0.05, 0.9))
    def test_mmc_matches_birth_death(self, servers, rho):
        arrival = rho * servers
        probabilities = birth_death_probabilities(
            birth_rate=lambda n: arrival,
            death_rate=lambda n: min(n, servers) * 1.0,
            num_states=600,
        )
        queue_from_bd = birth_death_mean(
            probabilities, value=lambda n: max(0, n - servers))
        metrics = mmc_metrics(arrival, 1.0, servers)
        assert metrics.mean_number_in_queue == pytest.approx(
            queue_from_bd, rel=1e-6, abs=1e-9)


class TestMMcK:
    def test_probabilities_sum_to_one(self):
        probabilities = mmck_state_probabilities(2.0, 1.0, servers=2, capacity=6)
        assert sum(probabilities) == pytest.approx(1.0)
        assert len(probabilities) == 7

    def test_blocking_increases_with_load(self):
        low = mmck_blocking_probability(1.0, 1.0, 2, 4)
        high = mmck_blocking_probability(3.0, 1.0, 2, 4)
        assert high > low

    def test_erlang_b_is_mmcc(self):
        # M/M/c/c blocking equals Erlang B.
        assert mmck_blocking_probability(2.5, 1.0, 3, 3) == pytest.approx(
            erlang_b(3, 2.5))

    def test_capacity_below_servers_rejected(self):
        with pytest.raises(ValueError):
            mmck_state_probabilities(1.0, 1.0, servers=3, capacity=2)


class TestBirthDeath:
    def test_two_state_chain(self):
        probabilities = birth_death_probabilities(
            birth_rate=lambda n: 1.0, death_rate=lambda n: 2.0, num_states=2)
        assert probabilities == pytest.approx([2 / 3, 1 / 3])

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            birth_death_probabilities(lambda n: -1.0, lambda n: 1.0, 3)
        with pytest.raises(ValueError):
            birth_death_probabilities(lambda n: 1.0, lambda n: 0.0, 3)


class TestLittlesLaw:
    def test_round_trip(self):
        delay = mean_delay_from_queue_length(6.0, arrival_rate=2.0)
        assert mean_queue_length_from_delay(delay, arrival_rate=2.0) == 6.0

    def test_normalized_delay(self):
        assert normalized_delay(5.0, service_rate=0.2) == 1.0

    def test_paper_intensity_definition(self):
        # rho = 16 lambda (1/(16 mu_n) + 1/(32 mu_s)).
        rho = traffic_intensity(16 * 0.1, bus_rate_total=16 * 1.0,
                                service_rate_total=32 * 0.1)
        assert rho == pytest.approx(1.6 * (1 / 16 + 1 / 3.2))

    @given(rho=st.floats(0.05, 1.5), ratio=st.floats(0.05, 10.0))
    def test_intensity_inversion(self, rho, ratio):
        arrival = arrival_rate_for_intensity(
            rho, processors=16, bus_rate=1.0, total_resources=32,
            service_rate=ratio)
        recovered = traffic_intensity(16 * arrival, 16 * 1.0, 32 * ratio)
        assert recovered == pytest.approx(rho)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mean_delay_from_queue_length(1.0, arrival_rate=0.0)
        with pytest.raises(ValueError):
            normalized_delay(1.0, service_rate=-1.0)
        with pytest.raises(ValueError):
            arrival_rate_for_intensity(0.0, 16, 1.0, 32, 1.0)
