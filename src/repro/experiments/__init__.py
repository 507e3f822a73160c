"""Experiment harness: figure/table registry and report rendering."""

from repro.experiments.figures import (
    FIG11_EXPECTED_AVERAGE_HOPS,
    FIGURE_SPECS,
    FigureSpec,
    QUALITY_PRESETS,
    blocking_experiment,
    cycle_time_comparison,
    fig11_example,
    figure_series,
    figure_work_units,
    intensity_grid,
    sec2_mapping_example,
    sec6_comparison,
    table2_selection,
)
from repro.experiments.registry import (
    EXPERIMENT_IDS,
    ExperimentResult,
    run_experiment,
)
from repro.experiments.report import (
    format_blocking_table,
    format_mapping,
    format_rows,
    format_series_table,
)

__all__ = [
    "FigureSpec",
    "FIGURE_SPECS",
    "QUALITY_PRESETS",
    "figure_series",
    "figure_work_units",
    "intensity_grid",
    "fig11_example",
    "FIG11_EXPECTED_AVERAGE_HOPS",
    "sec2_mapping_example",
    "blocking_experiment",
    "sec6_comparison",
    "table2_selection",
    "cycle_time_comparison",
    "ExperimentResult",
    "EXPERIMENT_IDS",
    "run_experiment",
    "format_series_table",
    "format_blocking_table",
    "format_mapping",
    "format_rows",
]
