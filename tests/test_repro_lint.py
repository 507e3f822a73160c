"""Tests for the determinism lint (repro.lint): rules, engine, and CLI."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import (
    DEFAULT_RULES,
    RULES_BY_CODE,
    Finding,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)


def _codes(findings):
    return [finding.code for finding in findings]


class TestSim001NoUnseededRandom:
    def test_plain_import_flagged_at_position(self):
        source = "import os\nimport random\n"
        findings = lint_source(source, "pkg/module.py")
        assert _codes(findings) == ["SIM001"]
        assert findings[0].line == 2
        assert findings[0].column == 1
        assert "RngStream" in findings[0].message

    def test_from_random_import_flagged(self):
        findings = lint_source("from random import shuffle\n", "pkg/module.py")
        assert _codes(findings) == ["SIM001"]

    def test_numpy_random_forms_flagged(self):
        for source in ("import numpy.random\n",
                       "from numpy import random\n",
                       "from numpy.random import default_rng\n",
                       "import numpy as np\n\n\ndef f():\n    return np.random.rand()\n"):
            findings = lint_source(source, "pkg/module.py")
            assert "SIM001" in _codes(findings), source

    def test_rng_module_is_exempt(self):
        findings = lint_source("import random\n", "src/repro/sim/rng.py")
        assert findings == []

    def test_suppression_comment_silences(self):
        source = "import random  # lint: disable=SIM001\n"
        assert lint_source(source, "pkg/module.py") == []

    def test_suppression_is_per_code(self):
        source = "import random  # lint: disable=SIM002\n"
        assert _codes(lint_source(source, "pkg/module.py")) == ["SIM001"]

    def test_unrelated_imports_clean(self):
        source = "import hashlib\nfrom itertools import chain\n"
        assert lint_source(source, "pkg/module.py") == []


class TestSim002NoWallClock:
    def test_time_time_flagged_in_scoped_dirs(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        findings = lint_source(source, "src/repro/sim/clock.py")
        assert _codes(findings) == ["SIM002"]
        assert findings[0].line == 5

    def test_datetime_now_flagged(self):
        source = ("from datetime import datetime\n\n\n"
                  "def f():\n    return datetime.now()\n")
        findings = lint_source(source, "src/repro/core/thing.py")
        assert _codes(findings) == ["SIM002"]

    def test_from_time_import_flagged(self):
        source = "from time import perf_counter\n"
        findings = lint_source(source, "src/repro/networks/foo.py")
        assert _codes(findings) == ["SIM002"]

    def test_outside_scope_not_flagged(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        assert lint_source(source, "benchmarks/bench_thing.py") == []


class TestSim003KernelEncapsulation:
    def test_env_private_write_flagged(self):
        source = "def cb(env):\n    env._now = 99.0\n"
        findings = lint_source(source, "src/repro/core/hack.py")
        assert _codes(findings) == ["SIM003"]

    def test_env_private_method_call_flagged(self):
        source = "def cb(self):\n    self.env._queue.append(None)\n"
        findings = lint_source(source, "src/repro/core/hack.py")
        assert _codes(findings) == ["SIM003"]

    def test_kernel_api_use_is_clean(self):
        source = "def cb(env):\n    env.schedule(env.event(), delay=1.0)\n"
        assert lint_source(source, "src/repro/core/model.py") == []

    def test_kernel_itself_is_exempt(self):
        source = "def step(env):\n    env._now = 1.0\n"
        assert lint_source(source, "src/repro/sim/environment.py") == []


class TestSim004ConfigValidation:
    def test_unvalidated_config_dataclass_flagged(self):
        source = textwrap.dedent("""\
            from dataclasses import dataclass


            @dataclass
            class RetryConfig:
                attempts: int = 3
            """)
        findings = lint_source(source, "pkg/module.py")
        assert _codes(findings) == ["SIM004"]
        assert "RetryConfig" in findings[0].message

    def test_post_init_satisfies_rule(self):
        source = textwrap.dedent("""\
            from dataclasses import dataclass


            @dataclass
            class RetryConfig:
                attempts: int = 3

                def __post_init__(self):
                    assert self.attempts >= 0
            """)
        assert lint_source(source, "pkg/module.py") == []

    def test_non_dataclass_config_ignored(self):
        source = "class ParserConfig:\n    pass\n"
        assert lint_source(source, "pkg/module.py") == []


class TestSim005PicklableWorkers:
    def test_lambda_submitted_to_pool_flagged(self):
        source = textwrap.dedent("""\
            def fan_out(pool, items):
                return [pool.submit(lambda x: x + 1, item) for item in items]
            """)
        findings = lint_source(source, "pkg/module.py")
        assert _codes(findings) == ["SIM005"]
        assert "lambda" in findings[0].message

    def test_lambda_mapped_over_executor_flagged(self):
        source = textwrap.dedent("""\
            def fan_out(executor, items):
                return list(executor.map(lambda x: x + 1, items))
            """)
        assert _codes(lint_source(source, "pkg/module.py")) == ["SIM005"]

    def test_nested_function_submitted_flagged(self):
        source = textwrap.dedent("""\
            def fan_out(pool, items):
                def worker(item):
                    return item + 1

                return [pool.submit(worker, item) for item in items]
            """)
        findings = lint_source(source, "pkg/module.py")
        assert _codes(findings) == ["SIM005"]
        assert "worker" in findings[0].message

    def test_module_level_worker_clean(self):
        source = textwrap.dedent("""\
            def worker(item):
                return item + 1


            def fan_out(pool, items):
                return [pool.submit(worker, item) for item in items]
            """)
        assert lint_source(source, "pkg/module.py") == []

    def test_attribute_pool_receiver_flagged(self):
        source = textwrap.dedent("""\
            def fan_out(self, items):
                return [self.pool.submit(lambda x: x, item) for item in items]
            """)
        assert _codes(lint_source(source, "pkg/module.py")) == ["SIM005"]

    def test_non_pool_receivers_ignored(self):
        source = textwrap.dedent("""\
            def transform(items):
                return list(map(lambda x: x + 1, items))


            def submit_form(client):
                return client.submit(lambda: None)
            """)
        assert lint_source(source, "pkg/module.py") == []

    def test_suppression_comment_silences(self):
        source = ("def f(pool):\n"
                  "    return pool.submit(lambda: 1)  # lint: disable=SIM005\n")
        assert lint_source(source, "pkg/module.py") == []


class TestEngine:
    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", "pkg/module.py")
        assert _codes(findings) == ["SIM000"]

    def test_findings_sorted_by_position(self):
        source = "import random\nimport numpy.random\n"
        findings = lint_source(source, "pkg/module.py")
        assert [finding.line for finding in findings] == [1, 2]

    def test_format_text_clean_and_dirty(self):
        assert format_text([]) == "repro lint: clean"
        finding = Finding(path="a.py", line=3, column=1,
                          code="SIM001", message="nope")
        report = format_text([finding])
        assert "a.py:3:1: SIM001 nope" in report
        assert "1 finding(s)" in report

    def test_format_json_round_trips(self):
        finding = Finding(path="a.py", line=3, column=1,
                          code="SIM001", message="nope")
        payload = json.loads(format_json([finding]))
        assert payload["count"] == 1
        assert payload["findings"][0]["path"] == "a.py"
        assert payload["findings"][0]["line"] == 3
        assert payload["tool"] == "repro-lint"

    def test_rule_catalogue_complete(self):
        assert sorted(RULES_BY_CODE) == [
            "SIM001", "SIM002", "SIM003", "SIM004", "SIM005"]
        assert all(rule.summary for rule in DEFAULT_RULES)

    def test_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"])


class TestMigratedTree:
    def test_src_is_clean(self):
        """The whole source tree passes its own determinism lint, per-file
        and cross-module rules alike (SIM001-SIM010)."""
        assert lint_paths(["src"]) == []

    def test_reintroduced_random_import_fires_sim001(self, tmp_path):
        """The fixture the issue demands: put `import random` back into the
        crossbar and SIM001 must fire at the exact file:line."""
        from pathlib import Path

        original = Path("src/repro/networks/crossbar.py").read_text()
        lines = original.splitlines()
        insert_at = next(i for i, line in enumerate(lines)
                         if line.startswith("from typing"))
        lines.insert(insert_at, "import random")
        tainted = tmp_path / "crossbar.py"
        tainted.write_text("\n".join(lines) + "\n")
        findings = lint_paths([str(tainted)])
        assert _codes(findings) == ["SIM001"]
        assert findings[0].line == insert_at + 1
        assert findings[0].path.endswith("crossbar.py")


class TestCli:
    def test_lint_src_exits_zero(self, capsys):
        assert main(["lint", "src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "src", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0

    def test_lint_dirty_file_exits_nonzero(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out
        assert "dirty.py:1:1" in out

    def test_lint_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005"):
            assert code in out
