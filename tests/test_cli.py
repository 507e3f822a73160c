"""Tests for the command-line interface and ASCII rendering."""

import pytest

from repro.cli import main
from repro.experiments.render import render_series


class TestCli:
    def test_list_prints_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for exp_id in ("fig4", "fig11", "table2", "blocking"):
            assert exp_id in output

    def test_solve(self, capsys):
        assert main(["solve", "0.5", "1.0", "0.2", "4"]) == 0
        output = capsys.readouterr().out
        assert "matrix-geometric" in output
        assert "bus utilization        : 0.5" in output

    def test_solve_unstable_reports_error(self, capsys):
        assert main(["solve", "5.0", "1.0", "0.2", "4"]) == 1
        assert "unstable" in capsys.readouterr().err

    def test_solve_alternative_method(self, capsys):
        assert main(["solve", "0.3", "1.0", "0.5", "2",
                     "--method", "stage-recursion"]) == 0
        assert "stage-recursion" in capsys.readouterr().out

    def test_run_fig11(self, capsys):
        assert main(["run", "fig11"]) == 0
        assert "3.5" in capsys.readouterr().out
        assert main(["run", "fig11", "--quality", "full"]) == 0
        assert "3.5" in capsys.readouterr().out

    def test_run_unknown_id(self, capsys):
        assert main(["run", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_simulate(self, capsys):
        assert main(["simulate", "8/1x8x8 XBAR/1", "--rho", "0.3",
                     "--horizon", "2000"]) == 0
        output = capsys.readouterr().out
        assert "mu_s*d" in output

    def test_simulate_bad_config(self, capsys):
        assert main(["simulate", "7/1x7x7 OMEGA/1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_recommend(self, capsys):
        assert main(["recommend", "--resource-cost", "0.25"]) == 0
        output = capsys.readouterr().out
        assert "build:" in output
        assert "SBUS" in output  # cheap resources -> private buses

    def test_blocking(self, capsys):
        assert main(["blocking", "--trials", "20"]) == 0
        output = capsys.readouterr().out
        assert "RSIN" in output

    def test_blocking_runs_the_request_sizes_that_fit(self, capsys):
        assert main(["blocking", "--size", "4", "--trials", "20"]) == 0
        rows = [line.split()[0] for line in
                capsys.readouterr().out.splitlines()
                if line.split() and line.split()[0].isdigit()]
        assert rows == ["3", "4"]

    def test_faults_resource(self, capsys):
        assert main(["faults", "4/4x1x1 SBUS/2", "--mttf", "400",
                     "--mttr", "50", "--horizon", "3000"]) == 0
        output = capsys.readouterr().out
        assert "fault model      : resource" in output
        assert "degraded model" in output
        assert "capacity offered" in output

    def test_faults_interchange(self, capsys):
        assert main(["faults", "8/1x8x8 OMEGA/1", "--kind", "interchange",
                     "--mttf", "500", "--mttr", "40",
                     "--horizon", "2000", "--task-timeout", "100"]) == 0
        output = capsys.readouterr().out
        assert "fault model      : interchange" in output

    def test_faults_kind_mismatch_reports_error(self, capsys):
        assert main(["faults", "4/4x1x1 SBUS/2", "--kind", "cell",
                     "--horizon", "1000"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_default_engine_prints_no_fallback_note(self, capsys):
        """Every registered figure family batches now: the default batched
        engine finds nothing to gate (fig4 is pure analytic, so this
        stays cheap while still walking the fallback-note path), and the
        retired engine names are refused."""
        assert main(["run", "fig4", "--no-cache", "--quality", "fast"]) == 0
        captured = capsys.readouterr()
        assert "falls back" not in captured.err
        for retired in ("auto", "megabatch"):
            with pytest.raises(SystemExit):
                main(["run", "fig4", "--engine", retired, "--no-cache"])


    def test_run_counts_points_not_units(self, capsys):
        """fig7's 32-cell table comes from 4 curve units."""
        assert main(["run", "fig7", "--no-cache", "--quality", "fast"]) == 0
        assert "32 points (4 units) in " in capsys.readouterr().out


class TestStartup:
    """``import repro.cli`` stays light: the heavy scientific modules load
    only where a command uses them."""

    HEAVY = ("scipy.stats", "scipy.sparse", "scipy.linalg", "networkx")

    def _import_cli(self, prelude=""):
        import subprocess
        import sys

        script = (f"{prelude}\nimport sys\nimport repro.cli\n"
                  f"print(sorted(name for name in {self.HEAVY!r} "
                  "if name in sys.modules))")
        return subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=False)

    def test_import_loads_no_heavy_module(self):
        result = self._import_cli()
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_survives_without_networkx(self):
        result = self._import_cli(
            'import sys\nsys.modules["networkx"] = None')
        assert result.returncode == 0, result.stderr


#: Arguments each rejected where they enter, with a named reason.
BAD_INPUT_ARGV = {
    "simulate-rho-0": ["simulate", "8/1x8x8 XBAR/1", "--rho", "0"],
    "faults-rho-0": ["faults", "4/4x1x1 SBUS/2", "--rho", "0"],
    "recommend-rho-0": ["recommend", "--resource-cost", "1", "--rho", "0"],
    "simulate-ratio-0": ["simulate", "8/1x8x8 XBAR/1", "--ratio", "0"],
    "simulate-rho-inf": ["simulate", "16/4x4x4 OMEGA/2", "--rho", "inf"],
    "simulate-ratio-inf": ["simulate", "8/1x8x8 XBAR/1", "--ratio", "inf"],
    "simulate-horizon-nan": ["simulate", "16/4x4x4 OMEGA/2",
                             "--horizon", "nan"],
    "recommend-ratio-0": ["recommend", "--resource-cost", "1",
                          "--ratio", "0"],
    "blocking-trials-0": ["blocking", "--trials", "0"],
    "blocking-size-2": ["blocking", "--size", "2"],
    "cache-prune-negative-size": ["cache", "prune", "--max-size", "-5"],
    "recommend-negative-cost": ["recommend", "--resource-cost", "-1"],
    "recommend-cost-inf": ["recommend", "--resource-cost", "inf"],
    "solve-arrival-nan": ["solve", "nan", "1", "1", "1"],
    "solve-service-inf": ["solve", "0.5", "1", "inf", "1"],
    "cache-prune-size-inf": ["cache", "prune", "--max-size", "inf"],
    "run-unit-timeout-nan": ["run", "fig4", "--no-cache",
                             "--unit-timeout", "nan"],
    "faults-task-timeout-nan": ["faults", "4/4x1x1 SBUS/2",
                                "--task-timeout", "nan"],
    "run-sec6-seed": ["run", "sec6", "--seed", "5"],
    "run-sec2-unit-timeout-nan": ["run", "sec2", "--unit-timeout", "nan"],
    "run-fig11-resume-no-cache": ["run", "fig11", "--seed", "5",
                                  "--engine", "scalar", "--resume",
                                  "--no-cache"],
}


@pytest.mark.parametrize("argv", list(BAD_INPUT_ARGV.values()),
                         ids=list(BAD_INPUT_ARGV))
def test_bad_input_fails_with_named_reason(argv, tmp_path, capsys):
    if argv[0] == "cache":
        argv = argv + ["--cache-dir", str(tmp_path)]
    assert main(argv) != 0
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


class TestRender:
    def make_series(self):
        from repro.analysis import analytic_series
        return [analytic_series("16/16x1x1 SBUS/2", 0.1, [0.2, 0.4, 0.6]),
                analytic_series("16/8x1x1 SBUS/4", 0.1, [0.2, 0.4, 0.6])]

    def test_render_contains_markers_and_legend(self):
        chart = render_series(self.make_series(), title="demo")
        assert "demo" in chart
        assert "o" in chart and "x" in chart
        assert "16/16x1x1 SBUS/2" in chart  # default label is the triplet
        assert "traffic intensity" in chart

    def test_render_empty(self):
        from repro.analysis import analytic_series
        saturated = [analytic_series("16/1x1x1 SBUS/32", 0.1, [0.9])]
        chart = render_series(saturated)
        assert "no finite points" in chart

    def test_render_validates_dimensions(self):
        with pytest.raises(ValueError):
            render_series(self.make_series(), width=4)

    def test_max_delay_clips(self):
        chart = render_series(self.make_series(), max_delay=0.001)
        assert "0.001" in chart
