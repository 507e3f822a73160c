"""Tests of the end-to-end benchmark harness; they run no figures.

    python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
from collections import Counter

import compare
import harness
import pytest
import tracer

TABLE = """fig7: Multiple shared buses, mu_s/mu_n = 0.1
   rho | 16x32 crossbar
  0.10 |       0.1234

(normalized queueing delay mu_s * d; '--' marks saturation)

4 points in 6.80s (1 job(s), 0 cache hit(s), cache /tmp/x)
"""

BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}


class TestTableDigest:
    def test_timing_summary_is_not_part_of_the_table(self):
        other = TABLE.replace("6.80s", "7.10s").replace("/tmp/x", "/tmp/y")
        assert harness.table_digest(other) == harness.table_digest(TABLE)

    def test_one_character_change_fails_the_invocation(self):
        expected = [harness.table_digest(TABLE)]
        changed = harness.table_digest(TABLE.replace("0.1234", "0.1235"))
        assert changed != expected[0]
        assert harness.failed_invocations([0], expected, expected) == []
        assert len(harness.failed_invocations([0], [changed], expected)) == 1

    def test_nonzero_exit_fails_the_invocation(self):
        digest = harness.table_digest(TABLE)
        problems = harness.failed_invocations([0, 3], [digest, digest],
                                              [digest, digest])
        assert problems == ["invocation 1 exited 3"]


def result(samples, seed=1, layers=None):
    return {"seed": seed, "workloads": {"xbar_cold": {
        "e2e": {"wall_s": {"samples": samples,
                           **harness.summarize(samples)}},
        "layers": layers or {}}}}


def verdict_of(base, change):
    lines, passed = compare.compare(result(base), result(change), BENCHMARK)
    return lines[1].split()[-1], passed


class TestCompare:
    def test_regression(self):
        assert verdict_of([10.0, 10.1, 10.0, 9.9, 10.0],
                          [11.5, 11.6, 11.4, 11.5, 9.95]) == (
            "REGRESSION", False)

    def test_within_bound_is_ok(self):
        assert verdict_of([10.0, 10.1, 10.0, 9.9, 10.0],
                          [10.5, 10.4, 10.6, 10.5, 9.95]) == ("ok", True)

    def test_wide_spread_is_unresolved(self):
        assert verdict_of([10.0, 12.5, 8.0, 10.0, 11.5],
                          [11.5, 11.6, 11.4, 11.5, 9.95]) == (
            "unresolved", True)

    def test_every_run_better_is_resolved_despite_spread(self):
        assert verdict_of([10.0, 12.5, 8.0, 10.0, 11.5],
                          [7.0, 5.0, 7.5, 6.0, 7.9]) == ("better", True)

    def test_count_mismatch_fails(self):
        samples = [10.0, 10.1, 10.0, 9.9, 10.0]
        base = result(samples, layers={"markov.solves": 234,
                                       "sim.engine_s": 1.0})
        same = result(samples, layers={"markov.solves": 234,
                                       "sim.engine_s": 2.0})
        other = result(samples, layers={"markov.solves": 233,
                                        "sim.engine_s": 1.0})
        assert compare.compare(base, same, BENCHMARK)[1]
        lines, passed = compare.compare(base, other, BENCHMARK)
        assert not passed
        assert any("COUNT MISMATCH xbar_cold markov.solves" in line
                   for line in lines)

    def test_counts_of_other_seeds_are_not_compared(self):
        samples = [10.0, 10.1, 10.0, 9.9, 10.0]
        base = result(samples, layers={"markov.solves": 234})
        other = result(samples, seed=2, layers={"markov.solves": 1})
        assert compare.compare(base, other, BENCHMARK)[1]

    def test_exit_status(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "load_benchmark", lambda: BENCHMARK)
        base, change = tmp_path / "a.json", tmp_path / "b.json"
        base.write_text(json.dumps(result([10.0, 10.1, 10.0, 9.9, 10.0])))
        change.write_text(json.dumps(result([13.0, 13.1, 13.0, 12.9, 13.0])))
        assert compare.main([str(base), str(base)]) == 0
        assert compare.main([str(base), str(change)]) == 1


class TestRotation:
    def test_every_workload_takes_every_position(self):
        names = list(harness.WORKLOADS)
        orders = [harness.rotated(names, index)
                  for index in range(len(names))]
        for position in range(len(names)):
            assert Counter(order[position] for order in orders) == Counter(
                names)
        assert harness.rotated(names, len(names)) == names
        assert all(sorted(order) == sorted(names) for order in orders)


class TestRecorder:
    def test_self_time_excludes_children_and_flat_kernels(self):
        recorder = tracer.Recorder()
        clock = iter([0.0, 1.0, 3.0, 10.0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tracer, "perf_counter", lambda: next(clock))
            with recorder.span("runner.run"):
                with recorder.span("runner.cache.get_many"):
                    pass
                recorder.kernel("runner.cache.put", 0.5)
                recorder.kernel("sim.rng.block", 4.0)
        assert recorder.self_seconds("runner.run") == pytest.approx(7.5)
        events = recorder.chrome_trace()["traceEvents"]
        assert [event["name"] for event in events] == [
            "runner.run", "runner.cache.get_many"]
        assert events[1]["args"]["parent"] == events[0]["args"]["id"]
        assert events[0]["args"]["runner.cache.put.calls"] == 1


class TestBenchmarkFile:
    def test_declared_metrics_match_the_harness(self):
        benchmark = harness.load_benchmark()
        assert [w["name"] for w in benchmark["workloads"]] == list(
            harness.WORKLOADS)
        assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == (
            harness.E2E_METRICS)
        assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == (
            harness.layer_units())
        setup = next(m for m in benchmark["end_to_end"]
                     if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"]
                                     for m in benchmark["end_to_end"])
