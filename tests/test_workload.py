"""Tests for workload specifications."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.workload import (
    DISTRIBUTIONS,
    Workload,
    sample_time,
)


class TestWorkload:
    def test_ratio(self):
        workload = Workload(0.1, 2.0, 0.5)
        assert workload.service_to_transmission_ratio == 0.25

    @pytest.mark.parametrize("field,value", [
        ("arrival_rate", 0.0),
        ("transmission_rate", -1.0),
        ("service_rate", 0.0),
        ("arrival_rate", float("inf")),
        ("transmission_rate", float("nan")),
        ("service_rate", float("inf")),
    ])
    def test_non_positive_rates_rejected(self, field, value):
        kwargs = dict(arrival_rate=1.0, transmission_rate=1.0, service_rate=1.0)
        kwargs[field] = value
        with pytest.raises(ConfigurationError):
            Workload(**kwargs)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            Workload(1.0, 1.0, 1.0, service_distribution="pareto")

    def test_deterministic_sampler(self):
        workload = Workload(1.0, 4.0, 1.0,
                            transmission_distribution="deterministic")
        rng = random.Random(0)
        assert workload.next_transmission(rng) == 0.25
        assert workload.next_transmission(rng) == 0.25

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_sampler_means(self, distribution):
        rng = random.Random(1)
        samples = [sample_time(rng, 2.0, distribution) for _ in range(40_000)]
        assert sum(samples) / len(samples) == pytest.approx(0.5, rel=0.05)

    def test_hyperexponential_is_more_variable(self):
        rng = random.Random(2)
        exponential = [sample_time(rng, 1.0, "exponential") for _ in range(40_000)]
        hyper = [sample_time(rng, 1.0, "hyperexponential") for _ in range(40_000)]

        def cv2(values):
            mean = sum(values) / len(values)
            variance = sum((v - mean) ** 2 for v in values) / len(values)
            return variance / mean ** 2

        assert cv2(hyper) > 2.0 * cv2(exponential)

    def test_bad_rate_in_sampler(self):
        with pytest.raises(ConfigurationError):
            sample_time(random.Random(0), 0.0, "exponential")

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(0.01, 100.0))
    def test_samples_are_positive(self, rate):
        rng = random.Random(3)
        for distribution in DISTRIBUTIONS:
            assert sample_time(rng, rate, distribution) > 0

