"""Unit tests for the configuration grammar."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import NETWORK_TYPES, parse_config
from repro.errors import ConfigurationError


class TestParsing:
    def test_paper_example_private_bus(self):
        config = parse_config("16/16x1x1 SBUS/2")
        assert config.processors == 16
        assert config.num_networks == 16
        assert config.network_type == "SBUS"
        assert config.resources_per_port == 2
        assert config.is_private_bus
        assert config.total_resources == 32

    def test_paper_example_crossbar(self):
        config = parse_config("16/1x16x32 XBAR/1")
        assert config.outputs_per_network == 32
        assert config.total_resources == 32
        assert config.processors_per_network == 16
        assert not config.is_private_bus

    def test_paper_example_cube(self):
        config = parse_config("16/1x16x16 CUBE/2")
        assert config.network_type == "CUBE"
        assert config.total_resources == 32

    def test_unicode_multiplication_sign(self):
        config = parse_config("16/8×2×2 OMEGA/2")
        assert config.num_networks == 8
        assert config.inputs_per_network == 2

    def test_infinite_resources(self):
        config = parse_config("16/16x1x1 SBUS/inf")
        assert config.resources_per_port == math.inf
        assert config.total_resources == math.inf

    def test_case_insensitive_network(self):
        assert parse_config("16/1x16x16 omega/2").network_type == "OMEGA"

    @pytest.mark.parametrize("bad", [
        "",
        "16 SBUS",
        "16/1x16x16 WARP/2",        # unknown network
        "16/3x1x1 SBUS/2",          # 3 does not divide 16
        "16/1x16x16 OMEGA/inf",     # inf only for buses
        "16/1x8x16 XBAR/1",         # j must equal p/i
        "16/1x16x12 OMEGA/2",       # not square
        "12/1x12x12 OMEGA/2",       # not a power of two
        "16/2x1x2 SBUS/4",          # bus must be 1x1
        "0/1x1x1 SBUS/1",           # zero processors
    ])
    def test_invalid_configurations_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_config(bad)

    def test_zero_resources_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("16/16x1x1 SBUS/0")


class TestRoundTrip:
    @given(
        partitions=st.sampled_from([1, 2, 4, 8, 16]),
        resources=st.integers(min_value=1, max_value=9),
    )
    def test_sbus_round_trip(self, partitions, resources):
        text = f"16/{partitions}x1x1 SBUS/{resources}"
        config = parse_config(text)
        assert parse_config(str(config)) == config

    @given(
        size_log=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(["OMEGA", "CUBE", "BASELINE"]),
        resources=st.integers(min_value=1, max_value=4),
        partition_log=st.integers(min_value=0, max_value=3),
    )
    def test_multistage_round_trip(self, size_log, kind, resources, partition_log):
        partitions = 2 ** partition_log
        size = 2 ** size_log
        processors = partitions * size
        text = f"{processors}/{partitions}x{size}x{size} {kind}/{resources}"
        config = parse_config(text)
        assert parse_config(str(config)) == config
        assert config.total_resources == partitions * size * resources


class TestDerived:
    def test_processors_per_network(self):
        assert parse_config("16/2x1x1 SBUS/16").processors_per_network == 8
        assert parse_config("16/4x4x4 XBAR/2").processors_per_network == 4

    def test_total_ports(self):
        assert parse_config("16/4x4x8 XBAR/1").total_ports == 32
        assert parse_config("16/1x1x1 SBUS/32").total_ports == 1

    def test_network_types_constant(self):
        assert set(NETWORK_TYPES) == {"SBUS", "XBAR", "OMEGA", "CUBE", "BASELINE"}
