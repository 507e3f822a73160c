"""Helpers shared by the benchmark modules."""

from __future__ import annotations


def timed_figure_series(benchmark, exp_id, quality="fast", intensities=None,
                        jobs=None):
    """Generate a figure once under the benchmark clock, with unit timings.

    Drives :func:`repro.experiments.figure_series` — the path ``repro
    run`` ships — through a dedicated uncached
    :class:`repro.runner.SweepRunner` so every point is really computed,
    then attaches the per-unit wall times reported by the workers (one
    unit per simulated curve, one per analytic point), the total runtime,
    the point count and the worker count to ``benchmark.extra_info`` —
    pytest-benchmark carries ``extra_info`` into the ``BENCH_*.json``
    payload, so sweep cost is inspectable per unit, not just as one
    opaque total.
    """
    from time import perf_counter

    from repro.experiments import figure_series
    from repro.runner import SweepRunner

    runner = SweepRunner(jobs=jobs)

    def generate():
        start = perf_counter()
        series = figure_series(exp_id, quality=quality,
                               intensities=intensities, runner=runner)
        return series, perf_counter() - start

    series, total = benchmark.pedantic(generate, rounds=1, iterations=1)
    outcomes = runner.last_outcomes
    benchmark.extra_info["per_unit_wall_time_s"] = [
        round(outcome.wall_time, 6) for outcome in outcomes]
    benchmark.extra_info["total_runtime_s"] = round(total, 6)
    benchmark.extra_info["points"] = sum(len(curve.points) for curve in series)
    benchmark.extra_info["jobs"] = runner.effective_jobs
    return series


def finite_delay(series, intensity):
    """The normalized delay of ``series`` at ``intensity`` (None if saturated)."""
    for point in series.points:
        if abs(point.intensity - intensity) < 1e-9:
            return point.normalized_delay
    return None


def series_by_label(series_list):
    """Index a list of Series by their label."""
    return {series.label: series for series in series_list}
