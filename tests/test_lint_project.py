"""Tests for the whole-program analyzer (repro.lint.project) and the
two-pass ``lint_paths`` around it: ProjectIndex, SIM006-SIM010, target
discovery, and one parse per linted file."""

import ast
import json
import os
import shutil
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    ALL_RULES,
    collect_suppressions,
    extract_module,
    lint_paths,
    lint_source,
)
from repro.lint.project import DERIVATION_CALLS as LINT_DERIVATION_CALLS
from repro.lint.project import ProjectIndex, module_name_for
from repro.sim.rng import DERIVATION_CALLS as RNG_DERIVATION_CALLS


def write_tree(root, files):
    """Materialize ``{relative_path: source}`` under ``root``."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def run_lint(root):
    return lint_paths([str(root)])


def codes(findings):
    return [finding.code for finding in findings]


def index_of(root, files):
    write_tree(root, files)
    modules = []
    for relative in files:
        path = root / relative
        source = path.read_text()
        per_line, file_codes = collect_suppressions(source)
        modules.append(extract_module(ast.parse(source), str(path),
                                      per_line, file_codes))
    return ProjectIndex(modules)


class TestModuleNames:
    def test_package_module_dotted(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": ""})
        assert module_name_for(tmp_path / "pkg" / "mod.py") == "pkg.mod"
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_bare_file_is_its_stem(self, tmp_path):
        (tmp_path / "script.py").write_text("")
        assert module_name_for(tmp_path / "script.py") == "script"


class TestProjectIndex:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/helpers.py": """\
            _STATE = {}


            def bump():
                _STATE["count"] = _STATE.get("count", 0) + 1


            def pure(x):
                return x + 1
            """,
        "pkg/main.py": """\
            from pkg.helpers import bump

            import pkg.helpers


            def entry(pool, items):
                return [pool.submit(worker, item) for item in items]


            def worker(item):
                bump()
                return pkg.helpers.pure(item)
            """,
    }

    def test_import_graph_project_edges_only(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        graph = index.import_graph()
        assert graph["pkg.main"] == ["pkg.helpers"]
        assert graph["pkg.helpers"] == []

    def test_resolve_from_import_and_alias(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        main_info = index.by_module["pkg.main"]
        assert index.resolve_call(main_info, "bump") == [
            ("pkg.helpers", "bump")]
        assert ("pkg.helpers", "pure") in index.resolve_call(
            main_info, "pkg.helpers.pure")

    def test_worker_entry_points_include_pool_submission(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        assert ("pkg.main", "worker") in index.worker_entry_points()

    def test_reachable_from_crosses_modules(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        reached = index.reachable_from([("pkg.main", "worker")])
        assert ("pkg.helpers", "bump") in reached
        assert reached[("pkg.helpers", "bump")] == ("pkg.main", "worker")

    def test_mutable_globals_recorded(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        assert "_STATE" in index.by_module["pkg.helpers"].mutable_globals


class TestSim006StreamCollision:
    def test_cross_module_spawn_seed_collision(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                from repro.sim.rng import spawn_seed


                def seed_a(master):
                    return spawn_seed(master, "fig3", "arrivals")
                """,
            "pkg/b.py": """\
                from repro.sim.rng import spawn_seed


                def seed_b(master):
                    return spawn_seed(master, "fig3", "arrivals")
                """,
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM006", "SIM006"]
        assert {Path(f.path).name for f in findings} == {"a.py", "b.py"}
        assert "pkg.b" in findings[0].message

    def test_dynamic_key_component_is_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                from repro.sim.rng import spawn_seed


                def seed_a(master, index):
                    return spawn_seed(master, "fig3", index)
                """,
            "pkg/b.py": """\
                from repro.sim.rng import spawn_seed


                def seed_b(master, index):
                    return spawn_seed(master, "fig3", index)
                """,
        })
        assert run_lint(tmp_path) == []

    def test_distinct_keys_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'left')\n"),
            "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'right')\n"),
        })
        assert run_lint(tmp_path) == []

    def test_injected_collision_in_real_module_caught(self, tmp_path):
        """The issue's seeded injection: make blocking.py derive the same
        chained stream twice and SIM006 must fire on both sites."""
        original = Path("src/repro/analysis/blocking.py").read_text()
        tainted = original.replace('"permutation-blocking"',
                                   '"blocking-comparison"')
        assert tainted != original
        write_tree(tmp_path, {"analysis/blocking.py": ""})
        (tmp_path / "analysis" / "blocking.py").write_text(tainted)
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM006", "SIM006"]
        assert all("blocking-comparison" in f.message for f in findings)


class TestSim007DigestDrift:
    def test_undeclared_params_read_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("drifted", reads=("alpha",))
                def drifted(seed, params, backend="dense"):
                    return params["alpha"] + params["beta"]
                """,
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM007"]
        assert "params['beta']" in findings[0].message

    def test_undeclared_read_in_list_protocol_body_flagged(self, tmp_path):
        """``params`` bound per member (a loop or comprehension target)
        is still the audited mapping."""
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("looped", reads=("alpha",))
                def looped(members, backend="dense"):
                    values = []
                    for _seed, params in members:
                        values.append(params["alpha"] + params["beta"])
                    return values


                @evaluator("comprehended", reads=("alpha",))
                def comprehended(members, backend="dense"):
                    return [params.get("gamma") for _seed, params in members]
                """,
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM007", "SIM007"]
        assert "params['beta']" in findings[0].message
        assert "params['gamma']" in findings[1].message

    def test_declared_reads_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("honest", reads=("alpha", "beta"))
                def honest(seed, params, backend="dense"):
                    return params["alpha"] * params.get("beta", 1.0)
                """,
        })
        assert run_lint(tmp_path) == []

    def test_aliased_decorator_still_recognized(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator as register


                @register("aliased", reads=())
                def aliased(seed, params, backend="dense"):
                    return params["gamma"]
                """,
        })
        assert codes(run_lint(tmp_path)) == ["SIM007"]

    def test_environ_read_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                import os

                from repro.runner.evaluators import evaluator


                @evaluator("envy", reads=("alpha",))
                def envy(seed, params, backend="dense"):
                    return params["alpha"] * float(os.environ["SCALE"])
                """,
        })
        findings = run_lint(tmp_path)
        assert "SIM007" in codes(findings)
        assert any("environment" in f.message for f in findings)

    def test_dynamic_key_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("dynamic", reads=("alpha",))
                def dynamic(seed, params, backend="dense"):
                    key = "alpha"
                    return params[key]
                """,
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM007"]
        assert "computed at runtime" in findings[0].message

    def test_injected_drift_in_real_registry_caught(self, tmp_path):
        """The issue's seeded injection: drop one declared key from the
        real figure-curve registration and SIM007 must fire."""
        original = Path("src/repro/runner/evaluators.py").read_text()
        tainted = original.replace('"intensities",\n', "", 1)
        assert tainted != original
        write_tree(tmp_path, {"runner/__init__.py": ""})
        (tmp_path / "runner" / "evaluators.py").write_text(tainted)
        findings = run_lint(tmp_path)
        assert any(f.code == "SIM007" and "intensities" in f.message
                   for f in findings)


class TestSim008WorkerImpurity:
    def test_global_write_traced_across_modules(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                _COUNTS = {}


                def bump(name):
                    _COUNTS[name] = _COUNTS.get(name, 0) + 1
                """,
            "pkg/evals.py": """\
                from pkg.state import bump

                from repro.runner.evaluators import evaluator


                @evaluator("impure", reads=("alpha",))
                def impure(seed, params, backend="dense"):
                    bump("impure")
                    return params["alpha"]
                """,
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM008"]
        assert "_COUNTS" in findings[0].message
        assert "pkg.evals" in findings[0].message

    def test_write_outside_worker_path_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                _COUNTS = {}


                def bump(name):
                    _COUNTS[name] = _COUNTS.get(name, 0) + 1
                """,
        })
        assert run_lint(tmp_path) == []

    def test_local_mutation_in_worker_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("pure", reads=("alpha",))
                def pure(seed, params, backend="dense"):
                    acc = {}
                    acc["value"] = params["alpha"]
                    return acc
                """,
        })
        assert run_lint(tmp_path) == []


class TestSim009UnorderedReduction:
    def test_set_iteration_into_accumulation_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "sim/hot.py": """\
                def total(first, second):
                    pending = {first, second}
                    acc = 0.0
                    for value in pending:
                        acc += value
                    return acc
                """,
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM009"]
        assert "sorted" in findings[0].message

    def test_sorted_iteration_clean(self, tmp_path):
        write_tree(tmp_path, {
            "sim/hot.py": """\
                def total(first, second):
                    pending = {first, second}
                    acc = 0.0
                    for value in sorted(pending):
                        acc += value
                    return acc
                """,
        })
        assert run_lint(tmp_path) == []

    def test_outside_hot_paths_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "analysis/cold.py": """\
                def total(first, second):
                    pending = {first, second}
                    acc = 0.0
                    for value in pending:
                        acc += value
                    return acc
                """,
        })
        assert run_lint(tmp_path) == []


class TestSim010NonAtomicWrite:
    def test_bare_write_open_in_runner_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "runner/store.py": """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM010"]
        assert "os.replace" in findings[0].message

    def test_atomic_replace_pattern_clean(self, tmp_path):
        write_tree(tmp_path, {
            "runner/store.py": """\
                import os


                def save(path, data):
                    temporary = path + ".tmp"
                    with open(temporary, "w") as handle:
                        handle.write(data)
                    os.replace(temporary, path)
                """,
        })
        assert run_lint(tmp_path) == []

    def test_outside_persistence_layers_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "analysis/export.py": """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
        })
        assert run_lint(tmp_path) == []


class TestSuppressionOfProjectFindings:
    def test_inline_pragma_silences_one_site(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": (
                "from repro.sim.rng import spawn_seed\n\n\n"
                "def f(s):\n"
                "    return spawn_seed(s, 'dup')  # lint: disable=SIM006\n"),
            "pkg/b.py": (
                "from repro.sim.rng import spawn_seed\n\n\n"
                "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        })
        findings = run_lint(tmp_path)
        assert codes(findings) == ["SIM006"]
        assert Path(findings[0].path).name == "b.py"

    def test_file_level_disable_silences_module(self, tmp_path):
        write_tree(tmp_path, {
            "runner/store.py": """\
                # lint: disable-file=SIM010
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
        })
        assert run_lint(tmp_path) == []


class TestVocabularySync:
    def test_lint_and_rng_derivation_calls_agree(self):
        """SIM006 indexes literals at exactly the runtime's derivation
        call names; the two vocabularies must never drift apart."""
        assert LINT_DERIVATION_CALLS == RNG_DERIVATION_CALLS

    def test_digest_material_matches_declared_contract(self):
        from repro.runner.workunit import DIGEST_MATERIAL

        assert DIGEST_MATERIAL == ("code_version", "evaluator_id", "seed",
                                   "backend", "params")

    def test_every_production_evaluator_declares_reads(self):
        import repro.runner.evaluators as evaluators

        for evaluator_id, function in evaluators.EVALUATORS.items():
            if function.__module__ != "repro.runner.evaluators":
                continue  # test suites register throwaway evaluators freely
            assert evaluators.EVALUATOR_READS[evaluator_id] is not None, (
                f"evaluator {evaluator_id!r} must declare reads=(...) so "
                "SIM007 can audit its digest material")


class TestRepoMetaLint:
    def test_whole_repo_is_baseline_clean_under_all_rules(self):
        """The tree linted with SIM001-SIM010 has no findings: no baseline
        of tolerated findings is kept, so clean means none at all."""
        findings = lint_paths(["src"])
        assert findings == [], [f.format() for f in findings]

    def test_catalogue_is_complete(self):
        assert sorted(rule.code for rule in ALL_RULES) == [
            f"SIM{n:03d}" for n in range(1, 11)]
        assert all(rule.summary for rule in ALL_RULES)


class TestCliIntegration:
    def test_list_rules_covers_whole_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for number in range(1, 11):
            assert f"SIM{number:03d}" in out


def cli_findings(target, capsys):
    """``repro lint <target>`` findings, paths relative to ``target``."""
    assert main(["lint", target, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    return [(os.path.relpath(f["path"], target), f["line"], f["column"],
             f["code"], f["message"]) for f in payload["findings"]]


class TestLintPaths:
    DIRTY = {
        "pkg/__init__.py": "",
        "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                     "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                     "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        "pkg/dirty.py": "import random\n",
    }

    def test_cli_parses_each_file_once(self, tmp_path, monkeypatch, capsys):
        """The per-file rules and the module summary share one tree."""
        root = write_tree(tmp_path / "tree", self.DIRTY)
        real_parse = ast.parse
        parsed = Counter()

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["lint", str(root)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out and "SIM006" in out
        linted = {name: count for name, count in parsed.items()
                  if name.startswith(root.as_posix())}
        assert linted == {(root / name).as_posix(): 1 for name in self.DIRTY}

    @pytest.mark.parametrize("where", ["..", ".hidden", "build"])
    def test_target_path_itself_is_never_skipped(self, tmp_path, monkeypatch,
                                                 capsys, where):
        """Dot and build directories are skipped only below a target: the
        same tree reached through ``..`` or kept under such a directory
        reports the same findings."""
        reference = write_tree(tmp_path / "tree", self.DIRTY)
        expected = cli_findings(str(reference), capsys)
        assert sorted(finding[3] for finding in expected) == [
            "SIM001", "SIM006", "SIM006"]
        if where == "..":
            monkeypatch.chdir(reference)
            target = "../tree"
        else:
            target = str(tmp_path / where / "tree")
            shutil.copytree(reference, target)
        assert cli_findings(target, capsys) == expected


class TestSatelliteRegressions:
    def test_sim002_dotted_datetime_flagged(self):
        source = ("import datetime\n\n\n"
                  "def f():\n    return datetime.datetime.now()\n")
        findings = lint_source(source, "src/repro/sim/clockuse.py")
        assert codes(findings) == ["SIM002"]

    def test_sim002_unrelated_dotted_tail_clean(self):
        source = ("def f(self):\n    return self.clock.time()\n")
        assert lint_source(source, "src/repro/sim/clockuse.py") == []

    def test_overlapping_targets_lint_each_file_once(self, tmp_path):
        write_tree(tmp_path, {"pkg/dirty.py": "import random\n"})
        once = lint_paths([str(tmp_path)])
        twice = lint_paths([str(tmp_path), str(tmp_path / "pkg"),
                            str(tmp_path / "pkg" / "dirty.py")])
        assert codes(once) == codes(twice) == ["SIM001"]

    def test_file_level_disable_in_first_comment_block(self):
        source = ("# generated file\n"
                  "# lint: disable-file=SIM001\n"
                  "import random\n")
        assert lint_source(source, "pkg/module.py") == []

    def test_disable_file_after_code_is_not_honored(self):
        source = ("import random\n"
                  "# lint: disable-file=SIM001\n")
        assert codes(lint_source(source, "pkg/module.py")) == ["SIM001"]

    def test_disable_file_all_swallows_syntax_errors(self):
        source = ("# lint: disable-file=ALL\n"
                  "def broken(:\n")
        assert lint_source(source, "pkg/module.py") == []
