"""Tests for the fabric base class, bus fabric and crossbar fabric."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.networks import CrossbarFabric, SingleBusFabric


class TestSingleBusFabric:
    def test_connects_when_port_is_candidate(self):
        fabric = SingleBusFabric(inputs=4)
        connection = fabric.connect(2, {0})
        assert connection is not None
        assert connection.output_port == 0
        assert fabric.active_connections == {connection}

    def test_refuses_without_candidate(self):
        fabric = SingleBusFabric(inputs=4)
        assert fabric.connect(0, set()) is None
        assert fabric.blocking_fraction == 1.0

    def test_release_restores_state(self):
        fabric = SingleBusFabric(inputs=4)
        connection = fabric.connect(1, {0})
        fabric.release(connection)
        assert fabric.active_connections == frozenset()

    def test_double_release_rejected(self):
        fabric = SingleBusFabric(inputs=4)
        connection = fabric.connect(1, {0})
        fabric.release(connection)
        with pytest.raises(SchedulingError):
            fabric.release(connection)

    def test_input_cannot_hold_two_connections(self):
        fabric = SingleBusFabric(inputs=4)
        fabric.connect(1, {0})
        with pytest.raises(SchedulingError):
            fabric.connect(1, {0})

    def test_port_range_checked(self):
        fabric = SingleBusFabric(inputs=4)
        with pytest.raises(SchedulingError):
            fabric.connect(9, {0})
        with pytest.raises(SchedulingError):
            fabric.connect(0, {3})

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleBusFabric(inputs=0)


class TestCrossbarFabric:
    def test_priority_takes_lowest_port(self):
        fabric = CrossbarFabric(4, 8)
        connection = fabric.connect(0, {5, 2, 7})
        assert connection.output_port == 2

    def test_never_blocks_internally(self):
        fabric = CrossbarFabric(4, 4)
        connections = [fabric.connect(i, {i}) for i in range(4)]
        assert all(c is not None for c in connections)
        assert fabric.blocking_fraction == 0.0

    def test_crossbar_hops_is_one(self):
        fabric = CrossbarFabric(2, 2)
        assert fabric.connect(0, {0}).hops == 1
