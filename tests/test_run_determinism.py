"""Run determinism: identical seeded runs of each fabric print the same
result, and different seeds do not."""

import pytest

from repro.config import SystemConfig
from repro.core import simulate
from repro.workload.arrivals import Workload


class TestRunDeterminism:
    """Two identical seeded runs of each fabric give identical results."""

    WORKLOAD = Workload(arrival_rate=0.05, transmission_rate=1.0,
                        service_rate=0.1)

    @pytest.mark.parametrize("triplet", [
        "8/8x1x1 SBUS/2",
        "8/1x8x8 XBAR/1",
        "8/1x8x8 OMEGA/2",
    ])
    def test_identical_seeded_runs_digest_equal(self, triplet):
        config = SystemConfig.parse(triplet)

        def result_repr():
            result = simulate(config, self.WORKLOAD, horizon=2_000.0,
                              warmup=200.0, seed=11)
            return repr(result)

        assert result_repr() == result_repr()

    def test_different_seeds_differ(self):
        config = SystemConfig.parse("8/1x8x8 XBAR/1")
        one = repr(simulate(config, self.WORKLOAD,
                            horizon=2_000.0, warmup=200.0, seed=1))
        two = repr(simulate(config, self.WORKLOAD,
                            horizon=2_000.0, warmup=200.0, seed=2))
        assert one != two
