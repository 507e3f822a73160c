"""Tests for the sweep machinery behind the delay figures: the points
``repro run`` computes (``analytic_point`` for buses, ``simulated_curves``
for switched fabrics) and the curves ``figure_series`` assembles."""

import pytest

from repro.analysis import (
    Series,
    SweepPoint,
    crossover_intensity,
    workload_at,
)
from repro.analysis.sweep import SimulatedCurve, analytic_point, simulated_curves
from repro.config import SystemConfig
from repro.experiments import figure_series


def _curve_points(triplet, intensities, horizon, seed=1):
    [points] = simulated_curves([SimulatedCurve(
        triplet, 0.1, intensities, [seed] * len(intensities), horizon)])
    return points


class TestWorkloadAt:
    def test_hits_requested_intensity(self):
        workload = workload_at(0.75, 0.1)
        rho = 16 * workload.arrival_rate * (
            1.0 / (16 * workload.transmission_rate)
            + 1.0 / (32 * workload.service_rate))
        assert rho == pytest.approx(0.75)

    def test_ratio_respected(self):
        workload = workload_at(0.5, 0.25)
        assert workload.service_to_transmission_ratio == pytest.approx(0.25)


class TestAnalyticSeries:
    def test_marks_saturated_points(self):
        # One shared bus saturates at rho = 0.375 for ratio 0.1.
        by_x = {x: analytic_point("16/1x1x1 SBUS/32", 0.1, x)
                for x in (0.2, 0.3, 0.5, 0.8)}
        assert by_x[0.2].normalized_delay is not None
        assert by_x[0.5].normalized_delay is None
        assert by_x[0.8].normalized_delay is None

    def test_monotone_in_load(self):
        delays = [analytic_point("16/16x1x1 SBUS/2", 0.1, x).normalized_delay
                  for x in (0.2, 0.4, 0.6)]
        assert delays == sorted(delays)

    def test_finite_points_helper(self):
        # fig4's first curve is the one shared bus, saturated at 0.8.
        first = figure_series("fig4", intensities=[0.2, 0.8])[0]
        assert str(first.config) == "16/1x1x1 SBUS/32"
        assert len(first.finite_points()) == 1

    def test_curves_take_the_figure_labels(self):
        series = figure_series("fig4", intensities=[0.2])
        assert series[3].label == "16 private buses, r=2"
        assert str(series[3].config) == "16/16x1x1 SBUS/2"
        assert series[3].method == "markov-chain"


class TestSimulatedSeries:
    def test_produces_delays_with_ci(self):
        points = _curve_points("16/1x16x16 XBAR/2", [0.3, 0.5],
                               horizon=4_000.0, seed=2)
        assert [point.intensity for point in points] == [0.3, 0.5]
        for point in points:
            assert point.normalized_delay >= 0.0
            assert point.ci_halfwidth is not None

    def test_saturation_guard_skips_hopeless_points(self):
        points = _curve_points("16/1x16x16 XBAR/2", [0.5, 1.5],
                               horizon=2_000.0)
        by_x = {p.intensity: p for p in points}
        assert by_x[1.5].normalized_delay is None

    def test_dispatch_by_network_type(self):
        buses = figure_series("fig4", intensities=[0.3])
        assert {curve.method for curve in buses} == {"markov-chain"}
        switched = figure_series("fig7", intensities=[0.3])
        assert {curve.method for curve in switched} == {"event-simulation"}


class TestCrossover:
    def make_series(self, values, label):
        config = SystemConfig.parse("16/16x1x1 SBUS/2")
        points = tuple(SweepPoint(intensity=x, normalized_delay=y)
                       for x, y in values)
        return Series(label=label, config=config, mu_ratio=0.1,
                      points=points, method="markov-chain")

    def test_detects_crossing(self):
        first = self.make_series([(0.2, 1.0), (0.4, 2.0), (0.6, 4.0)], "a")
        second = self.make_series([(0.2, 2.0), (0.4, 2.0), (0.6, 3.0)], "b")
        crossing = crossover_intensity(first, second)
        assert crossing is not None
        assert 0.2 < crossing <= 0.6

    def test_none_when_ordered(self):
        first = self.make_series([(0.2, 1.0), (0.4, 2.0)], "a")
        second = self.make_series([(0.2, 2.0), (0.4, 3.0)], "b")
        assert crossover_intensity(first, second) is None

    def test_ignores_saturated_points(self):
        first = self.make_series([(0.2, 1.0), (0.4, None)], "a")
        second = self.make_series([(0.2, 2.0), (0.4, 1.0)], "b")
        assert crossover_intensity(first, second) is None
