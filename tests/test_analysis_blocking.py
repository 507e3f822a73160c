"""Tests for the Section V blocking-probability experiments (E11)."""

import pytest

from repro.analysis import (
    average_blocking,
    blocking_comparison,
    full_permutation_blocking,
)
from repro.errors import ConfigurationError


class TestBlockingComparison:
    @pytest.fixture(scope="class")
    def points(self):
        return blocking_comparison(size=8, request_sizes=(4, 6),
                                   trials=120, seed=3)

    def test_probabilities_in_unit_interval(self, points):
        for point in points:
            for value in (point.rsin, point.address_random,
                          point.address_sequential):
                assert 0.0 <= value <= 1.0

    def test_rsin_blocks_less_than_address_mapping(self, points):
        """The paper's core claim: distributed search roughly halves the
        blocking probability of address mapping."""
        for point in points:
            assert point.rsin < point.address_random
            assert point.rsin <= 0.75 * point.address_random

    def test_blocking_grows_with_request_size_for_address_mapping(self):
        points = blocking_comparison(size=8, request_sizes=(2, 5, 8),
                                     trials=150, seed=1)
        values = [p.address_random for p in points]
        assert values[0] < values[-1]

    def test_invalid_request_size_rejected(self):
        with pytest.raises(ConfigurationError):
            blocking_comparison(size=8, request_sizes=(9,), trials=1)

    def test_average_blocking(self, points):
        averages = average_blocking(points)
        assert set(averages) == {"rsin", "address_random", "address_sequential"}
        assert averages["rsin"] < averages["address_random"]

    def test_average_of_nothing_rejected(self):
        with pytest.raises(ConfigurationError):
            average_blocking([])


class TestFullPermutation:
    def test_address_mapping_near_point_three(self):
        """Franklin's ~0.3 for a random permutation on an 8x8 Omega."""
        result = full_permutation_blocking(size=8, trials=400, seed=2)
        assert result["address_mapping"] == pytest.approx(0.30, abs=0.04)

    def test_rsin_resolves_full_permutations(self):
        """With every port free the distributed search re-routes around
        all conflicts: blocking vanishes."""
        result = full_permutation_blocking(size=8, trials=100, seed=2)
        assert result["rsin"] <= 0.02
