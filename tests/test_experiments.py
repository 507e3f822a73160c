"""Tests for the experiment registry, figure specs, and reports."""

import pytest

from repro.analysis.blocking import BlockingPoint
from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENT_IDS,
    FIG11_EXPECTED_AVERAGE_HOPS,
    FIGURE_SPECS,
    QUALITY_PRESETS,
    cycle_time_comparison,
    fig11_example,
    figure_series,
    format_blocking_table,
    format_rows,
    format_series_table,
    intensity_grid,
    run_experiment,
    sec2_mapping_example,
)


class TestFigureSpecs:
    def test_all_six_delay_figures_defined(self):
        assert set(FIGURE_SPECS) == {"fig4", "fig5", "fig7", "fig8",
                                     "fig12", "fig13"}

    def test_ratio_pairs(self):
        assert FIGURE_SPECS["fig4"].mu_ratio == 0.1
        assert FIGURE_SPECS["fig5"].mu_ratio == 1.0
        assert FIGURE_SPECS["fig12"].mu_ratio == 0.1

    def test_sbus_figures_list_the_paper_partitions(self):
        triplets = [triplet for _label, triplet in FIGURE_SPECS["fig4"].curves]
        for expected in ("16/1x1x1 SBUS/32", "16/2x1x1 SBUS/16",
                         "16/8x1x1 SBUS/4", "16/16x1x1 SBUS/2",
                         "16/16x1x1 SBUS/3", "16/16x1x1 SBUS/4",
                         "16/16x1x1 SBUS/inf"):
            assert expected in triplets

    def test_intensity_grid(self):
        grid = intensity_grid(0.25, start=0.25, stop=1.0)
        assert grid == [0.25, 0.5, 0.75, 1.0]
        with pytest.raises(ConfigurationError):
            intensity_grid(0.0)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError):
            figure_series("fig99")
        with pytest.raises(ConfigurationError):
            figure_series("fig4", quality="extreme")


class TestLibraryAgreesWithRun:
    @pytest.mark.parametrize("exp_id", ["fig4", "fig5"])
    def test_sbus_curves_equal_analytic_series(self, exp_id):
        """Every SBUS curve ``repro run`` prints is the library's
        ``analytic_series`` over the same grid, bit for bit."""
        from repro.analysis import analytic_series

        spec = FIGURE_SPECS[exp_id]
        grid = intensity_grid(QUALITY_PRESETS["fast"][0])
        series = figure_series(exp_id, quality="fast")
        assert len(series) == len(spec.curves)
        for curve in series:
            assert curve.config.network_type == "SBUS"
            library = analytic_series(curve.config, spec.mu_ratio, grid)
            assert curve.points == library.points


class TestFig11:
    def test_reproduces_paper_average(self):
        result = fig11_example()
        assert result.average_hops == FIG11_EXPECTED_AVERAGE_HOPS
        assert len(result.allocated) == 4


class TestSec2:
    def test_mapping_example(self):
        data = sec2_mapping_example()
        assert data["good_mappings_conflict_free"] == [True] * 4
        assert data["bad_mappings_allocated"] == [2, 2]
        assert data["optimal_allocatable"] == 3


class TestCycles:
    def test_rows_cover_sizes(self):
        rows = cycle_time_comparison(sizes=(4, 8))
        assert [row["N"] for row in rows] == [4, 8]
        for row in rows:
            assert row["distributed_multistage"] < row["centralized_multistage"] \
                or row["N"] <= 4


class TestRegistry:
    def test_ids_cover_every_artifact(self):
        assert set(EXPERIMENT_IDS) >= {"fig4", "fig5", "fig7", "fig8",
                                       "fig11", "fig12", "fig13", "sec2",
                                       "sec6", "blocking", "table2", "cycles"}

    def test_extension_experiments_registered(self):
        assert set(EXPERIMENT_IDS) >= {"bottleneck", "switching",
                                       "deadlock", "multibus"}

    def test_multibus_extension_runs(self):
        result = run_experiment("multibus")
        assert "2 buses" in result.report
        # Two buses beat one at equal total resources.
        assert result.data[1]["d"] < result.data[0]["d"]

    def test_fast_experiments_run(self):
        for exp_id in ("fig11", "sec2", "cycles"):
            result = run_experiment(exp_id)
            assert result.exp_id == exp_id
            assert result.report

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_analytic_figure_runs_fast(self):
        result = run_experiment("fig4", quality="fast")
        assert "fig4" in result.report
        assert len(result.data) == 7  # seven SBUS curves


class TestReports:
    def test_series_table_marks_saturation(self):
        from repro.analysis import analytic_series
        series = [analytic_series("16/1x1x1 SBUS/32", 0.1, [0.2, 0.8])]
        text = format_series_table(series, title="demo")
        assert "demo" in text
        assert "--" in text          # saturated point
        assert "0.20" in text

    def test_blocking_table(self):
        points = [BlockingPoint(request_size=4, trials=10, rsin=0.1,
                                address_random=0.2, address_sequential=0.15,
                                optimal=0.05)]
        text = format_blocking_table(points, full={"address_mapping": 0.3,
                                                   "rsin": 0.15})
        assert "0.300" in text
        assert "RSIN" in text

    def test_format_rows_generic(self):
        text = format_rows([{"a": 1, "b": None}, {"a": 2, "b": 0.5}],
                           columns=["a", "b"], title="t")
        assert "t" in text
        assert "--" in text
        assert "0.5000" in text
